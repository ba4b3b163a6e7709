"""repro.perf: the persistent pool and parallel determinism.

The load-bearing property is the first test: a parallel sweep is *equal*
to a serial one — full dataclass equality over every per-seed result,
not a statistical resemblance — and it holds through the *persistent*
worker pool, across pool reuse, for every sweep kind (chaos, lossy-core,
experiment replication) and for parallel ``repro.check`` frontier
expansion.  The CLI wiring (``--jobs``, ``--profile``) rides on top.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

from repro.chaos import FaultPlan, run_seed_sweep
from repro.check.explorer import explore_parallel
from repro.check.runner import CheckConfig
from repro.cli import main
from repro.perf.pool import WorkerPoolError, pool_stats, run_chunked, shutdown_pool


# -- parallel executor -------------------------------------------------------


def test_serial_sweeps_do_not_import_the_process_machinery():
    """``multiprocessing`` and ``concurrent.futures`` load only with a
    pool: a serial chaos sweep and ``explore()`` leave both out of a
    fresh interpreter."""
    code = textwrap.dedent("""
        import sys
        from repro.chaos import run_seed_sweep
        from repro.check.explorer import explore
        from repro.check.runner import CheckConfig
        run_seed_sweep(range(2), txns=10)
        explore(CheckConfig(), max_runs=5)
        print(sorted({"multiprocessing", "concurrent.futures"} & set(sys.modules)))
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        check=True,
    )
    assert out.stdout.strip() == "[]"



def test_parallel_map_serial_fallback():
    assert run_chunked("call", str, range(5)) == ["0", "1", "2", "3", "4"]
    assert run_chunked("call", str, range(5), jobs=1) == ["0", "1", "2", "3", "4"]


def test_parallel_map_preserves_input_order():
    assert run_chunked("call", str, range(8), jobs=3) == [str(i) for i in range(8)]


def test_parallel_sweep_identical_to_serial():
    serial = run_seed_sweep(range(42, 46), txns=20)
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
    serial = run_seed_sweep(range(7, 10), txns=15, plan=plan)
    parallel = run_seed_sweep(range(7, 10), txns=15, plan=plan, jobs=2)
    assert parallel.results == serial.results


# -- persistent worker pool --------------------------------------------------


def _kill_worker(_item):
    os._exit(1)  # simulate a hard worker death (segfault/OOM-kill class)


def test_pool_reused_across_sweeps():
    shutdown_pool()
    run_seed_sweep(range(42, 44), txns=10, jobs=2)
    before = pool_stats()
    run_seed_sweep(range(50, 52), txns=10, jobs=2)
    after = pool_stats()
    assert before["alive"] and after["alive"]
    # Second sweep dispatched more chunks through the *same* pool: no
    # re-fork, no re-import — the whole point of keeping it persistent.
    assert after["pools_created"] == before["pools_created"]
    assert after["chunks_dispatched"] > before["chunks_dispatched"]


def test_worker_crash_surfaces_clear_error():
    with pytest.raises(WorkerPoolError) as excinfo:
        run_chunked("call", _kill_worker, range(4), jobs=2)
    assert "call" in str(excinfo.value)
    # The broken pool was torn down, so the next dispatch transparently
    # builds a fresh one instead of failing forever.
    assert run_chunked("call", str, range(4), jobs=2) == ["0", "1", "2", "3"]


def test_explore_parallel_deterministic_merge():
    config = CheckConfig(sites=2, db_size=4, txns=2, max_branch=2)
    first = explore_parallel(config, max_runs=12, max_depth=12, jobs=2)
    second = explore_parallel(config, max_runs=12, max_depth=12, jobs=2)
    # Merged fingerprint set, stats, and counterexample are a pure
    # function of (config, budgets, jobs) — worker timing must not leak.
    assert first.fingerprints == second.fingerprints
    assert first.fingerprints
    assert first.counterexample == second.counterexample
    assert first.stats == second.stats


# -- experiment replication fan-out ------------------------------------------


def test_replicate_parallel_matches_serial():
    from repro.experiments import repeats

    serial = repeats.replicate_scenario2(seeds=(1, 2))
    parallel = repeats.replicate_scenario2(seeds=(1, 2), jobs=2)
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
