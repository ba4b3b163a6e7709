"""repro.check — deterministic schedule-space exploration.

The chaos layer (PR 1/2) *samples* the schedule space; this subsystem
*searches* it.  The deterministic simulator makes that cheap: a run is a
pure function of (config, decision vector), so the checker explores by
re-execution — no state forking, no snapshots — and every branch it
visits is a replayable schedule file.

Pipeline: :func:`~repro.check.explorer.explore` drives a bounded DFS
with visited-state and sleep-set-style pruning over the choice points
(:mod:`~repro.check.hooks`: same-time event orderings, deliver-vs-drop
fates, crash/recover placements); on a violation —  judged by the same
:class:`~repro.chaos.invariants.InvariantAuditor` as the chaos sweeps —
:func:`~repro.check.shrink.shrink` delta-debugs the schedule to a
1-minimal counterexample, and
:func:`~repro.check.schedule.export_counterexample` ships it with full
``repro.obs`` causal-trace artifacts.  ``repro check`` is the CLI;
docs/MODELCHECK.md is the guided tour.
"""

from repro.check.choices import ChoiceController, Decision
from repro.check.explorer import ExplorationResult, ExplorationStats, explore
from repro.check.runner import CheckConfig, CheckRunResult, run_schedule
from repro.check.schedule import (
    SCHEDULE_SCHEMA,
    build_schedule_doc,
    diverged,
    export_counterexample,
    load_schedule,
    save_schedule,
)
from repro.check.shrink import ShrinkResult, shrink

__all__ = [
    "CheckConfig",
    "CheckRunResult",
    "ChoiceController",
    "Decision",
    "ExplorationResult",
    "ExplorationStats",
    "SCHEDULE_SCHEMA",
    "ShrinkResult",
    "build_schedule_doc",
    "diverged",
    "explore",
    "export_counterexample",
    "load_schedule",
    "run_schedule",
    "save_schedule",
    "shrink",
]
