"""Performance tooling: the persistent worker pool and parallel sweeps.

Both are downstream of the fast-path work documented in
docs/PERFORMANCE.md:

* :mod:`repro.perf.pool` — the persistent worker pool: one long-lived,
  fork-where-available process pool per interpreter, fed compact
  ``(kind, shared, seeds)`` specs in contiguous chunks and merged in
  input order.  Every sweep in the process reuses the same warm workers.
* :mod:`repro.perf.parallel` — the sweep-facing API on top of the pool
  (chaos seeds, soak seeds, experiment replications) with a
  deterministic, input-ordered merge.  Parallel results are *identical*
  to serial ones, not just statistically equivalent: every unit of work
  is a pure function of its arguments.
"""

from repro.perf.parallel import (
    parallel_map,
    run_parallel_seed_sweep,
    run_parallel_soak_sweep,
)
from repro.perf.pool import (
    WorkerPoolError,
    pool_stats,
    run_chunked,
    shutdown_pool,
)

__all__ = [
    "WorkerPoolError",
    "parallel_map",
    "pool_stats",
    "run_chunked",
    "run_parallel_seed_sweep",
    "run_parallel_soak_sweep",
    "shutdown_pool",
]
