"""repro.perf: the persistent pool and parallel determinism.

The load-bearing property is the first test: a parallel sweep is *equal*
to a serial one — full dataclass equality over every per-seed result,
not a statistical resemblance — and it holds through the *persistent*
worker pool, across pool reuse, for every sweep kind (chaos, lossy-core,
experiment replication) and for ``repro.check``'s look-ahead search.  The
CLI wiring (``--jobs``, ``--profile``) rides on top.
"""

import os
import pickle
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import repro

from repro.chaos import FaultPlan, run_seed_sweep
from repro.check.explorer import explore
from repro.check.runner import CheckConfig
from repro.cli import main
from repro.perf import pool
from repro.perf.pool import Dealer, WorkerPoolError, run_chunked, shutdown_pool


# -- parallel executor -------------------------------------------------------


def _run_child(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this ``repro``;
    its stdout."""
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], capture_output=True,
        text=True, env=env, check=True,
    )
    return out.stdout


def test_serial_sweeps_do_not_import_the_process_machinery():
    """``multiprocessing`` loads only with a pool: a ``jobs=1`` chaos
    sweep and search leave it (and ``concurrent.futures``) out of a fresh
    interpreter, and so do a default sweep and search where this process
    may run on one CPU only."""
    out = _run_child("""
        import os, sys
        from repro.chaos import run_seed_sweep
        from repro.check.explorer import explore
        from repro.check.runner import CheckConfig
        loaded = lambda: sorted(
            {"multiprocessing", "concurrent.futures"} & set(sys.modules))
        run_seed_sweep(range(2), txns=10, jobs=1)
        explore(CheckConfig(), max_runs=5, jobs=1)
        print(loaded())
        os.sched_getaffinity = lambda pid: {0}
        run_seed_sweep(range(2), txns=10)
        explore(CheckConfig(), max_runs=5)
        print(loaded())
    """)
    assert out.split("\n") == ["[]", "[]", ""]


def test_no_worker_outlives_its_process():
    """A default sweep forks the persistent pool; the interpreter's exit
    joins it, so no worker is left running once the process is gone."""
    out = _run_child("""
        import os
        os.sched_getaffinity = lambda pid: {0, 1}  # two workers anywhere
        from repro.chaos import run_seed_sweep
        from repro.perf import pool
        run_seed_sweep(range(4), txns=10)
        print(*(worker.process.pid for worker in pool._workers))
    """)
    pids = [int(pid) for pid in out.split()]
    assert pids
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_parallel_map_serial_fallback():
    # ``jobs=1`` and a single item run in-process.
    assert run_chunked(str, [5]) == ["5"]
    assert run_chunked(str, range(5), jobs=1) == ["0", "1", "2", "3", "4"]


def test_parallel_map_preserves_input_order():
    assert run_chunked(str, range(8), jobs=3) == [str(i) for i in range(8)]


def test_parallel_sweep_identical_to_serial():
    serial = run_seed_sweep(range(42, 46), txns=20, jobs=1)
    parallel = run_seed_sweep(range(42, 46), txns=20, jobs=3)
    assert [r.seed for r in parallel.results] == list(range(42, 46))
    # Full dataclass equality: commits, aborts, sim time, fault counts,
    # violations, events_fired — everything.
    assert parallel.results == serial.results
    assert all(r.events_fired > 0 for r in serial.results)


def test_parallel_sweep_lossy_core_identical():
    # The retransmission + timeout layers are the most timing-entangled
    # code paths; they too must replay identically across processes.
    plan = FaultPlan.lossy()
    serial = run_seed_sweep(range(7, 10), txns=15, plan=plan, jobs=1)
    parallel = run_seed_sweep(range(7, 10), txns=15, plan=plan, jobs=2)
    assert parallel.results == serial.results


# -- persistent worker pool --------------------------------------------------


def _kill_worker(_item):
    os._exit(1)  # simulate a hard worker death (segfault/OOM-kill class)


def _pids() -> list[int]:
    return [worker.process.pid for worker in pool._workers]


def test_pool_reused_across_sweeps():
    shutdown_pool()
    run_seed_sweep(range(42, 44), txns=10, jobs=2)
    warm, forked = _pids(), pool._forked
    assert len(warm) == 2  # the first sweep forked the workers
    run_seed_sweep(range(50, 52), txns=10, jobs=2)
    explore(CheckConfig(txns=2), max_runs=12, jobs=2)
    # The second sweep and the search ran on the *same* workers: no
    # re-fork, no re-import — the whole point of keeping them persistent.
    assert _pids() == warm
    assert pool._forked == forked
    # Asking for more forks only the missing ones.
    run_chunked(str, range(6), jobs=3)
    assert _pids()[:2] == warm and pool._forked == forked + 1


def test_worker_crash_surfaces_clear_error():
    with pytest.raises(WorkerPoolError) as excinfo:
        run_chunked(_kill_worker, range(4), jobs=2)
    assert f"{_kill_worker.__module__}._kill_worker" in str(excinfo.value)
    assert not pool._workers  # every worker retired, the live one too
    # The broken pool was torn down, so the next dispatch transparently
    # builds a fresh one instead of failing forever.
    assert run_chunked(str, range(4), jobs=2) == ["0", "1", "2", "3"]


def test_a_task_error_is_raised_in_the_parent_and_the_workers_live_on():
    warm = (run_chunked(str, range(2), jobs=2), _pids())[1]
    with pytest.raises(ZeroDivisionError) as excinfo:
        run_chunked(_reciprocal, [1, 0, 2], jobs=2)
    assert "in _reciprocal" in str(excinfo.value.__cause__)  # the worker's traceback
    assert run_chunked(_reciprocal, [1, 2], jobs=2) == [1.0, 0.5]
    assert _pids() == warm


def test_a_function_that_does_not_pickle_is_refused_in_the_parent():
    """A worker gets its function by import path, so a lambda or a
    closure cannot be dealt; nothing is sent, and the pool serves on."""
    shutdown_pool()
    with pytest.raises((pickle.PicklingError, AttributeError)):
        run_chunked(lambda item: item, range(2), jobs=2)
    assert [worker.ticket for worker in pool._workers] == [None, None]
    assert run_chunked(str, range(2), jobs=2) == ["0", "1"]


def test_a_request_a_worker_cannot_unpickle_is_raised_in_the_parent(monkeypatch):
    """A worker finds its function by import path; one set on its module
    after the workers forked is not there.  The unpickling error is the
    request's own, raised in the parent, and the workers serve on."""
    late_module = types.ModuleType("latemod")
    exec("def early(item):\n    return item\n", late_module.__dict__)
    monkeypatch.setitem(sys.modules, "latemod", late_module)
    shutdown_pool()  # the workers fork with ``latemod`` but without ``late``
    assert run_chunked(late_module.early, range(4), jobs=2) == [0, 1, 2, 3]
    warm = _pids()
    exec("def late(item):\n    return -item\n", late_module.__dict__)
    with pytest.raises(AttributeError, match="'late'"):
        run_chunked(late_module.late, range(4), jobs=2)
    assert _pids() == warm
    assert run_chunked(late_module.early, range(4), jobs=2) == [0, 1, 2, 3]


def _reciprocal(item):
    return 1 / item


def _negate(item):
    return -item


def test_a_reply_no_caller_took_is_never_read_by_the_next():
    """A dealer that goes away with items in flight (a look-ahead search
    that stopped) leaves their replies in the pipes; the next caller reads
    and drops them, and gets only its own."""
    gone = Dealer(str, 2)
    gone.deal("a", 1)
    gone.deal("b", 2)
    assert all(worker.ticket is not None for worker in pool._workers[:2])
    # Both replies are in their pipes before the next caller deals.
    assert all(worker.conn.poll(10) for worker in pool._workers[:2])
    assert run_chunked(_negate, [1, 2, 3], jobs=2) == [-1, -2, -3]
    assert all(worker.ticket is None for worker in pool._workers[:2])


def test_a_look_ahead_search_is_the_serial_search():
    config = CheckConfig(sites=2, db_size=4, txns=2, max_branch=2)
    ahead = explore(config, max_runs=12, max_depth=12, jobs=2)
    serial = explore(config, max_runs=12, max_depth=12, jobs=1)
    # Fingerprint set, stats, and counterexample are a pure function of
    # (config, budgets) — neither jobs nor worker timing may leak.
    assert ahead.fingerprints == serial.fingerprints
    assert ahead.fingerprints
    assert ahead.counterexample == serial.counterexample
    assert ahead.stats == serial.stats


# -- experiment replication fan-out ------------------------------------------


def test_replicate_parallel_matches_serial():
    from repro.experiments import repeats

    serial = repeats.replicate_scenario(2, seeds=(1, 2), jobs=1)
    parallel = repeats.replicate_scenario(2, seeds=(1, 2), jobs=2)
    assert parallel.values == serial.values


# -- CLI wiring --------------------------------------------------------------


def test_cli_chaos_jobs(capsys):
    assert main(["chaos", "--seeds", "2", "--txns", "10", "--jobs", "2"]) == 0
    assert "seeds" in capsys.readouterr().out


def test_cli_profile_flag(capsys):
    assert main(["--profile", "fig3"]) == 0
    out = capsys.readouterr().out
    assert "cumulative" in out
    assert "function calls" in out


def test_cli_profile_profiles_the_sweep_not_the_wait(capsys):
    """cProfile sees only this process, so ``--profile`` runs a sweep
    in-process: the seeds' own work shows, not a wait on the pool."""
    assert main(["--profile", "chaos", "--seeds", "2", "--txns", "10"]) == 0
    assert "run_chaos_seed" in capsys.readouterr().out
