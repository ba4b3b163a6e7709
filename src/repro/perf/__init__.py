"""Performance tooling: the persistent worker pool.

:mod:`repro.perf.pool` is the one front-end for process-level fan-out:
one long-lived set of fork-where-available workers per interpreter, each
on one duplex pipe, dealt a ``(fn, item)`` request whenever it is idle,
with replies merged by key.  ``fn`` is a module-level function or a
:func:`functools.partial` of one, named by its caller, so this package
imports nothing else from ``repro``.  Chaos seed sweeps, recovery
matrices and experiment replications call :func:`run_chunked`
(input-order merge); ``repro.check``'s search deals the next frontier
prefixes through the same workers and takes each run when it pops that
prefix.  Both use every CPU unless ``jobs=1``, every caller in the
process reuses the same warm workers, and parallel results are
*identical* to serial ones, not just statistically equivalent, because
every unit of work is a pure function of its arguments (see
docs/PERFORMANCE.md).
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
