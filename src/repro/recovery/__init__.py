"""repro.recovery — parallel partitioned recovery.

The paper's two-step batch copier (§3.2) drains a recovering site's
fail-locked items sequentially: one outstanding batch, always from the
lowest up-to-date donor.  Production systems (RAMCloud being the
canonical example) recover by *partitioning* the stale data and replaying
from many peers at once, so recovery time is bounded by the slowest
shard, not the sum.

This package provides:

- :mod:`repro.recovery.partition` — the deterministic partition planner
  that shards a stale-item set across all up-to-date donors;
- :mod:`repro.recovery.scheduler` — :class:`ParallelCopierScheduler`, the
  bounded-concurrency fan-out engine behind ``RecoveryPolicy.PARALLEL``,
  with incremental re-planning as fail-locks clear or donors fail;
- :mod:`repro.recovery.experiment` — the recovery-time experiment family
  (time-to-last-faillock-clear vs. stale size vs. donor count vs. policy);
- :mod:`repro.recovery.report` — the byte-deterministic ``repro.recovery/1``
  report with ASCII/SVG charts.

See docs/RECOVERY.md.
"""

from repro.recovery.partition import plan_partitions
from repro.recovery.scheduler import ParallelCopierScheduler

__all__ = [
    "plan_partitions",
    "ParallelCopierScheduler",
    "RecoveryCell",
    "run_recovery_cell",
    "run_recovery_matrix",
    "RECOVERY_SCHEMA",
    "build_recovery_report",
    "validate_recovery_report",
    "render_recovery_text",
    "write_recovery_svg",
]


def __getattr__(name: str):
    # Experiment/report helpers import the full system stack; load them
    # lazily so `import repro.recovery` from the site layer (which
    # constructs the scheduler) stays cycle-free and cheap.
    if name in ("RecoveryCell", "run_recovery_cell", "run_recovery_matrix"):
        from repro.recovery import experiment

        return getattr(experiment, name)
    if name in (
        "RECOVERY_SCHEMA",
        "build_recovery_report",
        "validate_recovery_report",
        "render_recovery_text",
        "write_recovery_svg",
    ):
        from repro.recovery import report

        return getattr(report, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
