"""Persistent forked worker pool, one duplex pipe per worker.

The original parallel executor paid the full pool lifecycle on every
sweep: spawn workers, re-import ``repro`` in each, pickle a config object
per seed, tear everything down.  On sweeps measured in tenths of a
second that startup dominates — a 16-seed sweep measured parallel
*slower* than serial (0.95x).  This module keeps one process-wide set of
workers instead, created on first use and reused by every caller for the
life of the process:

* **Long-lived workers.**  The workers are a module-level list; a second
  sweep in the same process reuses them warm.  Where the platform offers
  it they fork, so they inherit the already-imported ``repro`` for free.
  A caller that asks for more workers than exist forks only the missing
  ones.
* **One pipe each, dealt to whichever is idle.**  Each worker sits on
  one duplex :func:`multiprocessing.Pipe`.  The parent sends one
  ``(fn, item)`` request to an idle worker and reads each reply as it
  arrives (:func:`multiprocessing.connection.wait`):
  no queue-feeder or management thread competes with the parent for the
  GIL, so the parent can run a simulation of its own between two
  replies (``repro.check``'s look-ahead search does).
* **Plain functions.**  A worker computes ``fn(item)``.  ``fn`` is a
  module-level function or a :func:`functools.partial` of one, so it
  pickles by reference: its import path plus the plain data bound to it
  (a config, never a built cluster or a live scheduler).  ``item`` is a
  seed, a cell or a schedule prefix.  Workers rebuild everything else
  from it, exactly like the determinism tests demand.  A lambda or a
  closure does not pickle, so dealing one raises in the parent; a
  function the workers cannot import by its path (one set on its module
  after they forked) fails in the worker's unpickling, and that error is
  raised in the parent like one the function raised.
* **Deterministic merge.**  Replies are filed under the key they were
  dealt with and read back in the caller's order — input order for
  :func:`run_chunked` — so the merged result is identical to the serial
  one no matter which worker finished first.  A reply whose caller has
  gone (a look-ahead run the search never needed) is read and dropped by
  the next caller: the parent notes the ticket of the request each
  worker runs, and a :class:`Dealer` answers only for its own.

Every unit of work must remain a pure function of ``fn`` and ``item``:
it builds its own cluster, scheduler, and named RNG streams from the
seed and shares no mutable state with any other unit.  That property
(pinned by ``tests/test_perf.py``) is what makes reusing one pool across
chaos sweeps, recovery matrices, experiment replications, and
``repro.check`` look-ahead runs safe.

Every sweep fans out by default: ``jobs=None`` means every CPU this
process may run on, and ``jobs=1`` is the one way to run in-process.  The
workers fork once and persist, so a test that patches ``src/`` and then
runs a default sweep or search must pass ``jobs=1``: the workers were
forked before the patch and never see it.

Worker crashes do not hang the caller: a dead worker surfaces as
:class:`WorkerPoolError` naming the function it ran, and every worker is
retired so the next call starts from fresh ones.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import os
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable, Optional

# ``multiprocessing`` is imported only when a worker is forked: a serial
# sweep never pays its memory.
if TYPE_CHECKING:  # pragma: no cover - type-only import
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess

__all__ = [
    "Dealer",
    "WorkerPoolError",
    "resolve_jobs",
    "run_chunked",
    "shutdown_pool",
]


class WorkerPoolError(RuntimeError):
    """A worker process died mid-task (segfault, OOM kill, os._exit)."""


def _name(fn: Callable[[Any], Any]) -> str:
    """The import path of ``fn``, or of the function a partial wraps."""
    if isinstance(fn, functools.partial):
        fn = fn.func
    return f"{fn.__module__}.{fn.__qualname__}"


# -- worker side -----------------------------------------------------------


def _serve(conn: Connection, parent_end: Connection) -> None:
    """One worker's life: answer each ``(fn, item)`` with ``(True,
    result)`` or ``(False, (exception, its traceback text))`` until the
    parent closes its end.  A request that does not unpickle here is
    answered with its error, like one whose function raised."""
    import signal
    import traceback

    # Ctrl-C reaches the whole process group; the parent handles it and
    # closes the pipes, which ends this loop.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # The parent's ends of this pipe and of the earlier workers' pipes: a
    # copy held here would keep a worker from reading EOF once the parent
    # closes its end.
    parent_end.close()
    for worker in _workers:
        worker.conn.close()
    _workers.clear()
    while True:
        # An error is raised in the parent, by Dealer.take.
        try:
            fn, item = conn.recv()
        except EOFError:
            return
        except Exception as exc:  # the request does not unpickle here
            reply = (False, (exc, traceback.format_exc()))
        else:
            try:
                reply = (True, fn(item))
            except Exception as exc:
                reply = (False, (exc, traceback.format_exc()))
        try:
            conn.send(reply)
        except OSError:  # the parent closed its end while this task ran
            return
        except Exception as exc:  # the reply does not pickle; nothing was sent
            error = RuntimeError(f"the reply does not pickle: {exc!r}")
            conn.send((False, (error, traceback.format_exc())))


# -- parent side -----------------------------------------------------------


class _Worker:
    """One forked worker, its end of the pipe, and the ticket of the one
    request it is running, which its next reply answers (``None`` when
    idle)."""

    __slots__ = ("process", "conn", "ticket")

    def __init__(self, process: BaseProcess, conn: Connection) -> None:
        self.process = process
        self.conn = conn
        self.ticket: Optional[int] = None


_workers: list[_Worker] = []
_forked = 0  # workers ever started in this process
_tickets = itertools.count()


def _grow(size: int) -> list[_Worker]:
    """The first ``size`` workers, forking the missing ones (never shrunk —
    idle workers are cheap, re-forking them is not)."""
    global _forked
    if len(_workers) < size:
        import multiprocessing

        if not _forked:
            atexit.register(shutdown_pool)
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if "fork" in methods else None)
        while len(_workers) < size:
            parent_end, child_end = context.Pipe()
            process = context.Process(
                target=_serve, args=(child_end, parent_end), daemon=True
            )
            process.start()
            child_end.close()
            _workers.append(_Worker(process, parent_end))
            _forked += 1
    return _workers[:size]


def shutdown_pool() -> None:
    """Retire every worker (tests, cold-start benchmarks, exit).

    Closing a worker's pipe ends its loop; one still running a request
    nobody will read finishes it first.
    """
    retired = list(_workers)
    _workers.clear()
    for worker in retired:
        worker.conn.close()
    for worker in retired:
        worker.process.join(timeout=10)
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join()


def resolve_jobs(jobs: Optional[int]) -> int:
    """``jobs`` as given, or for ``None`` every CPU this process may run on."""
    if jobs is not None:
        return jobs
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_UNDEALT = object()


class Dealer:
    """One caller's share of the pool: items dealt one at a time to idle
    workers among the first ``workers``, each of which computes
    ``fn(item)``, and each reply taken by its key.

    A reply still owed to an earlier dealer (a look-ahead run its search
    never popped) is read and dropped here, never filed: the dealer files
    only the tickets it issued.
    """

    def __init__(self, fn: Callable[[Any], Any], workers: int) -> None:
        self.fn = fn
        self.workers = workers
        self._keys: dict[int, Hashable] = {}  # ticket in flight -> key
        self._replies: dict[Hashable, tuple[bool, Any]] = {}

    def __contains__(self, key: Hashable) -> bool:
        """Whether ``key`` was dealt and its reply not yet taken."""
        return key in self._replies or key in self._keys.values()

    def idle(self) -> int:
        """How many workers could take an item now, after reading every
        reply already in (forks the workers on first use)."""
        workers = _grow(self.workers)
        self._receive(workers, 0)
        return sum(worker.ticket is None for worker in workers)

    def deal(self, key: Hashable, item: Any) -> None:
        """Send ``item`` to an idle worker, waiting for one if none is."""
        workers = _grow(self.workers)
        while True:
            for worker in workers:
                if worker.ticket is None:
                    try:
                        worker.conn.send((self.fn, item))
                    except OSError as exc:
                        raise self._died() from exc
                    worker.ticket = ticket = next(_tickets)
                    self._keys[ticket] = key
                    return
            self._receive(workers, None)

    def take(self, key: Hashable) -> Any:
        """The reply for a dealt ``key``, waiting for it; an exception the
        task raised is raised here."""
        if key not in self:
            raise KeyError(key)
        while key not in self._replies:
            self._receive(_workers, None)
        ok, value = self._replies.pop(key)
        if not ok:
            exc, trace = value
            raise exc from RuntimeError(f"{_name(self.fn)}, in the worker:\n{trace}")
        return value

    def _receive(self, workers: list[_Worker], timeout: Optional[float]) -> None:
        """Read the replies that arrive within ``timeout`` (``None``: wait
        for at least one) from the busy ``workers``."""
        from multiprocessing.connection import wait

        busy = {worker.conn: worker for worker in workers if worker.ticket is not None}
        if not busy:
            if timeout is None:  # waiting on a worker that was retired
                raise self._died()
            return
        for conn in wait(list(busy), timeout):
            try:
                ok, value = conn.recv()
            except (EOFError, OSError) as exc:
                raise self._died() from exc
            worker = busy[conn]
            key = self._keys.pop(worker.ticket, _UNDEALT)
            worker.ticket = None
            if key is not _UNDEALT:
                self._replies[key] = (ok, value)

    def _died(self) -> WorkerPoolError:
        shutdown_pool()
        return WorkerPoolError(
            f"worker process died while running {_name(self.fn)}; "
            "the pool has been reset — rerun to retry (a crash here "
            "usually means a worker was OOM-killed or called os._exit)"
        )


def run_chunked(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    *,
    jobs: Optional[int] = None,
) -> list[Any]:
    """``[fn(item) for item in items]``, fanned out across the pool.

    ``jobs`` of ``None`` uses every CPU this process may run on; 1 runs
    serially in-process (no workers, no pickling), as does a single item.
    Otherwise ``fn`` must pickle by reference (see the module docstring);
    each item goes to whichever of ``jobs`` workers is idle first, so one
    slow item cannot hold up the rest, and the results are read back in
    input order, which makes the output independent of worker scheduling.
    """
    work = list(items)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(work) <= 1:
        return [fn(item) for item in work]
    dealer = Dealer(fn, min(jobs, len(work)))
    for index, item in enumerate(work):
        dealer.deal(index, item)
    return [dealer.take(index) for index in range(len(work))]
