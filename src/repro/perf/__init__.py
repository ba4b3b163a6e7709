"""Performance tooling: the persistent worker pool.

:mod:`repro.perf.pool` is the one front-end for process-level fan-out:
one long-lived, fork-where-available process pool per interpreter, fed
compact ``(kind, shared, items)`` specs in contiguous chunks and merged
in input order.  Chaos seed sweeps, recovery matrices, experiment
replications and ``repro.check`` frontier expansion call
:func:`run_chunked` directly (the sweeps on every CPU unless ``jobs=1``);
every sweep in the process reuses the same warm workers, and parallel
results are *identical* to serial ones, not just statistically
equivalent, because every unit of work is a pure function of its
arguments (see docs/PERFORMANCE.md).
"""

from repro.perf.pool import (
    WorkerPoolError,
    run_chunked,
    shutdown_pool,
)

__all__ = [
    "WorkerPoolError",
    "run_chunked",
    "shutdown_pool",
]
