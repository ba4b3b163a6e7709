"""Persistent fork-based worker pool for sweep fan-out.

The original parallel executor paid the full pool lifecycle on every
sweep: spawn workers, re-import ``repro`` in each, pickle a config object
per seed, tear everything down.  On sweeps measured in tenths of a
second that startup dominates — a 16-seed sweep measured parallel
*slower* than serial (0.95x).  This module replaces it with a
process-wide pool that is created once and reused by every caller for
the life of the process:

* **Long-lived workers.**  The pool is a module-level singleton; a second
  sweep in the same process reuses the warm workers.  Where the platform
  offers it the pool forks (workers inherit the already-imported
  ``repro`` for free); elsewhere the initializer pays the imports once
  per worker instead of once per task.
* **Compact schedule specs.**  Work crosses the pipe as
  ``(kind, shared, chunk-of-seeds)``: a registered preset id, one shared
  config delta per *chunk* (plain data — never a built cluster or a live
  scheduler), and the seeds themselves.  Workers rebuild everything else
  from the seed, exactly like the determinism tests demand.
* **Chunked dispatch.**  Seeds are split into contiguous chunks
  (a few per worker, for late-finisher balance) so per-task pickling and
  scheduling overhead is amortized across many simulations.
* **Deterministic merge.**  Chunk results are concatenated in submission
  order, which is input order — the merged list is identical to the
  serial one no matter which worker finished first.

Every unit of work must remain a pure function of its spec: it builds
its own cluster, scheduler, and named RNG streams from the seed and
shares no mutable state with any other unit.  That property (pinned by
``tests/test_perf.py``) is what makes reusing one pool across chaos
sweeps, experiment replications, and ``repro.check`` frontier expansion
safe.

Worker crashes do not hang the sweep: a dead worker surfaces as
:class:`WorkerPoolError` naming the task kind, and the broken pool is
retired so the next call starts from a fresh one.
"""

from __future__ import annotations

import atexit
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

# ``multiprocessing`` and ``concurrent.futures`` are imported only when a
# pool is built: a serial sweep never pays their memory.
if TYPE_CHECKING:  # pragma: no cover - type-only import
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "WorkerPoolError",
    "get_pool",
    "pool_stats",
    "run_chunked",
    "shutdown_pool",
    "task",
]


class WorkerPoolError(RuntimeError):
    """A worker process died mid-task (segfault, OOM kill, os._exit)."""


# -- task registry ---------------------------------------------------------
#
# Tasks are registered *in this module* (or in modules the worker
# initializer imports) so that both fork workers (which inherit the
# registry) and spawn workers (which re-import this module to unpickle
# ``_run_chunk``) see every kind.

_TASKS: dict[str, Callable[[Any, Any], Any]] = {}


def task(kind: str) -> Callable[[Callable[[Any, Any], Any]], Callable[[Any, Any], Any]]:
    """Register a module-level ``fn(shared, item) -> result`` under ``kind``."""

    def register(fn: Callable[[Any, Any], Any]) -> Callable[[Any, Any], Any]:
        _TASKS[kind] = fn
        return fn

    return register


# -- worker side -----------------------------------------------------------


def _init_worker() -> None:
    """Pay the heavy imports once per worker, not once per task.

    Under fork this is a no-op in practice (the parent already imported
    everything); under spawn it front-loads the cost so the first task's
    latency is not an import storm.
    """
    import repro.chaos.runner  # noqa: F401
    import repro.check.explorer  # noqa: F401


def _run_chunk(kind: str, shared: Any, items: list) -> list:
    """Run one chunk of specs inside a worker; results in item order."""
    fn = _TASKS[kind]
    return [fn(shared, item) for item in items]


# -- registered tasks ------------------------------------------------------


@task("chaos-seed")
def _chaos_seed_task(shared: tuple, seed: int) -> Any:
    """One chaos sweep unit: (sites, db_size, txns, plan, mutate) + seed."""
    from repro.chaos.runner import run_chaos_seed

    sites, db_size, txns, plan, mutate = shared
    return run_chaos_seed(
        seed, sites=sites, db_size=db_size, txns=txns, plan=plan, mutate=mutate
    )


@task("call")
def _call_task(fn: Callable[[Any], Any], item: Any) -> Any:
    """Generic ``fn(item)`` unit: ``run_chunked("call", fn, items)`` is a
    parallel map.  ``fn`` must be module-level (it is pickled by import
    path) and crosses the pipe once per chunk, not once per item."""
    return fn(item)


@task("check-prefixes")
def _check_prefixes_task(shared: tuple, prefixes: list) -> tuple:
    """One frontier-expansion unit for parallel ``repro.check``.

    ``shared`` carries the :class:`~repro.check.runner.CheckConfig` plus
    budgets; ``prefixes`` is this worker's slice of the root's branch
    points (disjoint subtrees by construction).  Returns plain data —
    the stats tuple, the sorted fingerprint list, and the counterexample
    vector — so the merge never depends on rich-object identity.
    """
    from repro.check.explorer import _explore_worker

    return _explore_worker(shared, prefixes)


# -- parent side -----------------------------------------------------------

_pool: Optional[ProcessPoolExecutor] = None
_pool_workers = 0
_pools_created = 0
_chunks_dispatched = 0


def get_pool(jobs: int) -> ProcessPoolExecutor:
    """The shared pool, created on first use and grown when ``jobs`` asks
    for more workers than it has (never shrunk — idle workers are cheap,
    respawning them is not)."""
    global _pool, _pool_workers, _pools_created
    if _pool is None or _pool_workers < jobs:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if not _pools_created:
            # Imported after this module, concurrent.futures is torn down
            # before it at exit; a pool still alive then would be
            # finalized against a half-cleared module.
            atexit.register(shutdown_pool)
        if _pool is not None:
            _pool.shutdown(wait=True)
        methods = multiprocessing.get_all_start_methods()
        method = "fork" if "fork" in methods else None
        _pool = ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=multiprocessing.get_context(method),
            initializer=_init_worker,
        )
        _pool_workers = jobs
        _pools_created += 1
    return _pool


def shutdown_pool() -> None:
    """Tear the shared pool down (tests and cold-start benchmarks)."""
    global _pool, _pool_workers
    if _pool is not None:
        _pool.shutdown(wait=True)
        _pool = None
        _pool_workers = 0


def pool_stats() -> dict:
    """Lifecycle counters (how benches separate warm from cold)."""
    return {
        "alive": _pool is not None,
        "workers": _pool_workers,
        "pools_created": _pools_created,
        "chunks_dispatched": _chunks_dispatched,
    }


def _chunked(items: list, parts: int) -> list[list]:
    """Split into ``parts`` contiguous chunks, sizes differing by <= 1."""
    base, extra = divmod(len(items), parts)
    chunks = []
    start = 0
    for index in range(parts):
        end = start + base + (1 if index < extra else 0)
        if end > start:
            chunks.append(items[start:end])
        start = end
    return chunks


def run_chunked(
    kind: str,
    shared: Any,
    items: Iterable[Any],
    *,
    jobs: Optional[int] = None,
    chunks_per_worker: int = 2,
) -> list[Any]:
    """Run registered task ``kind`` over ``items``; results in input order.

    ``jobs`` of ``None`` or <= 1 runs serially in-process (no pool, no
    pickling) so callers can thread a ``jobs`` parameter through
    unconditionally.  Parallel runs split the items into contiguous
    chunks — ``chunks_per_worker`` per worker, so one slow chunk cannot
    serialize the sweep tail — and concatenate chunk results in
    submission order, which makes the output independent of worker
    scheduling.
    """
    global _chunks_dispatched
    work = list(items)
    fn = _TASKS[kind]
    if jobs is None or jobs <= 1 or len(work) <= 1:
        return [fn(shared, item) for item in work]
    from concurrent.futures.process import BrokenProcessPool

    pool = get_pool(jobs)
    parts = min(len(work), jobs * max(1, chunks_per_worker))
    chunks = _chunked(work, parts)
    _chunks_dispatched += len(chunks)
    results: list[Any] = []
    try:
        # submit() itself raises once an earlier chunk has killed a worker.
        futures = [pool.submit(_run_chunk, kind, shared, chunk) for chunk in chunks]
        for future in futures:
            results.extend(future.result())
    except BrokenProcessPool as exc:
        shutdown_pool()
        raise WorkerPoolError(
            f"worker process died while running {kind!r} tasks; "
            "the pool has been reset — rerun to retry (a crash here "
            "usually means a worker was OOM-killed or called os._exit)"
        ) from exc
    return results
