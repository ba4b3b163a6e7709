"""repro.chaos — randomized fault injection with online invariant auditing.

The paper validates its protocol with hand-scripted failure timelines
(§2–§4); this package complements them with *randomized* testing: a fault
interposition layer on the network (drop / duplicate / delay / reorder,
plus seeded crash–recover–partition–heal schedules) and an online auditor
that checks the protocol's safety invariants while the chaos runs.  A
seed sweep (``repro chaos --seeds N``) turns the pair into a repeatable
search for protocol regressions.

Programmatic usage::

    from repro.chaos import FaultPlan, run_chaos_seed, run_seed_sweep

    result = run_chaos_seed(7)                  # conservative plan
    assert result.clean                         # no invariant violations

    report = run_seed_sweep(range(20), plan=FaultPlan.lossy())
    print(report.dirty_seeds, report.stalled_seeds)

``run_chaos_seed(..., trace=TraceSink(enabled=True))`` additionally
records the run's structured trace (see :mod:`repro.obs`); auditor
findings then appear as ``chaos.violation`` events with causal context.
"""

from repro.chaos.faults import DROPPABLE, DUPLICABLE, PRESETS, FaultPlan, FaultStats
from repro.chaos.interpose import FaultInjector
from repro.chaos.invariants import InvariantAuditor
from repro.chaos.report import format_sweep_report
from repro.chaos.runner import (
    ChaosRunResult,
    ChaosSweepReport,
    NeuteredFailLockTable,
    neuter_faillocks,
    run_chaos_seed,
    run_seed_sweep,
)
from repro.chaos.schedule import build_chaos_scenario

__all__ = [
    "DROPPABLE",
    "DUPLICABLE",
    "PRESETS",
    "FaultPlan",
    "FaultStats",
    "FaultInjector",
    "InvariantAuditor",
    "format_sweep_report",
    "ChaosRunResult",
    "ChaosSweepReport",
    "NeuteredFailLockTable",
    "neuter_faillocks",
    "run_chaos_seed",
    "run_seed_sweep",
    "build_chaos_scenario",
]
