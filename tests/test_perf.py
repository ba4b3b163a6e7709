"""repro.perf: the persistent pool, parallel determinism, and the bench.

The load-bearing property is the first test: a parallel sweep is *equal*
to a serial one — full dataclass equality over every per-seed result,
not a statistical resemblance — and it holds through the *persistent*
worker pool, across pool reuse, for every sweep kind (chaos, lossy-core,
soak) and for parallel ``repro.check`` frontier expansion.  Everything
else (bench schema, the CI regression gates, CLI wiring) rides on top.
"""

import dataclasses
import json
import os

import pytest

from repro.chaos import FaultPlan, run_seed_sweep
from repro.check.explorer import explore_parallel
from repro.check.runner import CheckConfig
from repro.cli import main
from repro.soak.engine import SoakConfig, run_soak
from repro.soak.report import build_report
from repro.perf.bench import (
    BENCH_SCHEMA,
    check_regression,
    run_simcore_bench,
    run_sweep_bench,
    validate_simcore_doc,
    validate_sweep_doc,
)
from repro.perf.parallel import (
    parallel_map,
    run_parallel_seed_sweep,
    run_parallel_soak_sweep,
)
from repro.perf.pool import WorkerPoolError, pool_stats, shutdown_pool


# -- parallel executor -------------------------------------------------------


def test_parallel_map_serial_fallback():
    assert parallel_map(str, range(5)) == ["0", "1", "2", "3", "4"]
    assert parallel_map(str, range(5), jobs=1) == ["0", "1", "2", "3", "4"]


def test_parallel_map_preserves_input_order():
    assert parallel_map(str, range(8), jobs=3) == [str(i) for i in range(8)]


def test_parallel_sweep_identical_to_serial():
    serial = run_seed_sweep(range(42, 46), txns=20)
    parallel = run_seed_sweep(range(42, 46), txns=20, jobs=3)
    assert parallel.seeds == serial.seeds
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


def test_run_parallel_seed_sweep_direct():
    report = run_parallel_seed_sweep(range(42, 44), txns=10, jobs=2)
    assert report.seeds == [42, 43]
    assert not report.mutated


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


def test_soak_sweep_parallel_matches_serial():
    config = SoakConfig(txns=300, rate_tps=40.0)
    serial = [
        build_report(run_soak(dataclasses.replace(config, seed=seed)))
        for seed in (3, 4)
    ]
    parallel = run_parallel_soak_sweep([3, 4], config, jobs=2)
    assert parallel == serial


def test_worker_crash_surfaces_clear_error():
    with pytest.raises(WorkerPoolError) as excinfo:
        parallel_map(_kill_worker, range(4), jobs=2)
    assert "call" in str(excinfo.value)
    # The broken pool was torn down, so the next dispatch transparently
    # builds a fresh one instead of failing forever.
    assert parallel_map(str, range(4), jobs=2) == ["0", "1", "2", "3"]


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


# -- benchmark harness -------------------------------------------------------


def test_simcore_bench_schema():
    doc = run_simcore_bench(quick=True)
    assert validate_simcore_doc(doc) == []
    assert doc["quick"] is True
    for entry in doc["presets"].values():
        assert entry["speedup"] > 0


def test_sweep_bench_schema_and_determinism():
    doc = run_sweep_bench(quick=True, jobs=2)
    assert validate_sweep_doc(doc) == []
    assert doc["identical"] is True
    assert doc["jobs"] == 2
    # Warm vs cold: the headline wall is the warm-pool one; the cold wall
    # (pool creation charged) rides along as an additive field.
    assert doc["parallel_wall_s"] == doc["parallel_warm_wall_s"]
    assert doc["parallel_cold_wall_s"] > 0
    assert doc["cold_speedup"] > 0
    assert doc["cpus"] >= 1
    # Additive fields are validated when present...
    bad = dict(doc)
    bad["parallel_cold_wall_s"] = -1.0
    assert any("parallel_cold_wall_s" in p for p in validate_sweep_doc(bad))
    # ...but an older artifact without them still reads clean.
    old = {k: v for k, v in doc.items() if "cold" not in k and "warm" not in k}
    del old["cpus"]
    assert validate_sweep_doc(old) == []


def _simcore_doc(events_per_sec):
    return {
        "schema": BENCH_SCHEMA,
        "kind": "simcore",
        "quick": True,
        "presets": {
            name: {
                "events": 1000,
                "wall_s": 1000 / eps,
                "events_per_sec": eps,
                "peak_rss_kb": 50000,
                "baseline_events_per_sec": eps / 2,
                "speedup": 2.0,
            }
            for name, eps in events_per_sec.items()
        },
    }


def test_check_regression_flags_only_big_drops():
    committed = _simcore_doc(
        {"concurrent": 100.0, "chaos": 100.0, "serial": 100.0}
    )
    fine = _simcore_doc({"concurrent": 80.0, "chaos": 71.0, "serial": 400.0})
    assert check_regression(committed, fine, tolerance=0.30) == []
    regressed = _simcore_doc(
        {"concurrent": 60.0, "chaos": 100.0, "serial": 100.0}
    )
    problems = check_regression(committed, regressed, tolerance=0.30)
    assert len(problems) == 1
    # The failure must name the preset AND the metric, with both numbers.
    assert problems[0].startswith("preset 'concurrent': metric events_per_sec")
    assert "40%" in problems[0]
    assert "fresh 60" in problems[0] and "committed 100" in problems[0]


def test_check_regression_names_missing_preset():
    committed = _simcore_doc(
        {"concurrent": 100.0, "chaos": 100.0, "serial": 100.0}
    )
    partial = _simcore_doc({"concurrent": 100.0, "chaos": 100.0, "serial": 100.0})
    del partial["presets"]["serial"]
    problems = check_regression(committed, partial, tolerance=0.30)
    assert problems == [
        "preset 'serial': metric events_per_sec missing from fresh measurement"
    ]


def test_validate_simcore_rejects_garbage():
    assert validate_simcore_doc([]) == ["expected a JSON object"]
    doc = _simcore_doc({"concurrent": 100.0, "chaos": 100.0, "serial": 100.0})
    doc["presets"]["chaos"]["events"] = 0
    assert any("chaos.events" in p for p in validate_simcore_doc(doc))
    del doc["presets"]["serial"]
    assert any("serial: missing" in p for p in validate_simcore_doc(doc))


def test_validate_sweep_rejects_divergence():
    doc = run_sweep_bench(quick=True, jobs=2)
    doc["identical"] = False
    assert any("diverged" in p for p in validate_sweep_doc(doc))


# -- experiment replication fan-out ------------------------------------------


def test_replicate_parallel_matches_serial():
    from repro.experiments import repeats

    serial = repeats.replicate_scenario2(seeds=(1, 2))
    parallel = repeats.replicate_scenario2(seeds=(1, 2), jobs=2)
    assert parallel.values == serial.values


# -- CLI wiring --------------------------------------------------------------


def test_cli_bench_write_then_check(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["bench", "--quick", "--write"]) == 0
    doc = json.loads((tmp_path / "BENCH_simcore.json").read_text())
    assert validate_simcore_doc(doc) == []
    sweep = json.loads((tmp_path / "BENCH_sweep.json").read_text())
    assert validate_sweep_doc(sweep) == []
    # ``--check`` against those artifacts, with the measurement replaced by
    # canned documents: re-measuring here would be a wall-clock assertion
    # (the events/sec tolerance).  The CI ``bench`` job owns the live
    # measurement.  A sub-1x parallel speedup is not a failure — a ~100 ms
    # sweep is nothing a pool can amortise — but a parallel run that
    # diverges from the serial one is.
    from repro.perf import bench

    fresh_sweep = dict(sweep, jobs=2, cpus=2, speedup=0.9)
    monkeypatch.setattr(bench, "run_simcore_bench", lambda **_: doc)
    monkeypatch.setattr(bench, "run_sweep_bench", lambda **_: fresh_sweep)
    assert main(["bench", "--quick", "--check"]) == 0
    fresh_sweep["identical"] = False
    assert main(["bench", "--quick", "--check"]) == 1
    assert "diverged" in capsys.readouterr().err


def test_cli_bench_check_missing_artifact(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["bench", "--quick", "--check"]) == 1
    assert "BENCH_simcore.json" in capsys.readouterr().err


def test_cli_chaos_jobs(capsys):
    assert main(["chaos", "--seeds", "2", "--txns", "10", "--jobs", "2"]) == 0
    assert "seeds" in capsys.readouterr().out


def test_cli_profile_flag(capsys):
    assert main(["--profile", "fig3"]) == 0
    out = capsys.readouterr().out
    assert "cumulative" in out
    assert "function calls" in out
