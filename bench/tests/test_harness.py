"""Harness tests.  None asserts on wall-clock.

Run with ``PYTHONPATH=src python -m pytest bench/tests -q`` (not part of
tier-1: ``pyproject.toml`` collects ``tests/`` only).
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Outcome  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- span arithmetic ------------------------------------------------------


def test_self_time_is_duration_minus_children():
    spans = [
        (0, "root", 0, 100, -1),
        (1, "net", 10, 60, 0),
        (2, "site", 20, 50, 1),
        (3, "site", 70, 90, 0),
    ]
    assert tracing.self_times(spans) == {"root": 30, "net": 20, "site": 50}


def test_wrappers_agree_with_the_reference_arithmetic():
    ticks = iter(range(0, 10_000, 7))
    tracer = tracing.Tracer(clock=lambda: next(ticks))

    def leaf():
        return "leaf"

    leaf_span = tracer.wrap(leaf, "storage", "leaf")

    def middle():
        return [leaf_span(), leaf_span()]

    middle_span = tracer.wrap(middle, "site", "middle")

    def failing():
        leaf_span()
        raise KeyError("boom")

    failing_span = tracer.wrap(failing, "net", "failing")

    def root():
        middle_span()
        with pytest.raises(KeyError):
            failing_span()
        return "done"

    assert tracer.run_root(root) == "done"
    assert middle_span.__qualname__ == middle.__qualname__
    by_name = dict(zip(tracer.points, tracer.calls))
    assert by_name == {"leaf": 3, "middle": 1, "failing": 1, "root": 1}
    rows = [(i, tracer.points[p], s, e, parent) for i, p, s, e, parent in tracer.spans]
    assert tracing.self_times(rows) == dict(zip(tracer.points, tracer.self_ns))
    # One root, and self times add up to exactly its duration.
    (root_row,) = [r for r in rows if r[4] == -1]
    assert sum(tracer.self_ns) == root_row[3] - root_row[2]
    assert tracer.by_layer(tracer.calls)["storage"] == 3


def test_span_cap_keeps_aggregates_complete():
    ticks = iter(range(10_000))
    tracer = tracing.Tracer(max_spans=2, clock=lambda: next(ticks))
    span = tracer.wrap(lambda: None, "sim", "noop")
    for _ in range(5):
        span()
    assert len(tracer.spans) == 2 and tracer.calls == [5]


# -- order statistics and the bound comparison ----------------------------


def test_quartiles_match_the_statistics_module():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    assert harness.quartiles(values) == (q1, statistics.median(values), q3)
    assert harness.quartiles([2.5]) == (2.5, 2.5, 2.5)
    reported = harness.metric(values, "s")
    assert reported == {"value": 3.0, "unit": "s", "q1": q1, "q3": q3, "n": 7}


def test_worse_by_respects_direction():
    assert harness.worse_by(100.0, 90.0, "higher") == pytest.approx(0.10)
    assert harness.worse_by(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert harness.worse_by(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert harness.worse_by(0.0, 0.0, "lower") == 0.0


def _result(work_per_ref_s, rss=30.0, setup=0.2, **extra):
    doc = {
        "work_per_ref_s": {"value": work_per_ref_s},
        "peak_rss_mb": {"value": rss},
        "setup_s": {"value": setup},
    }
    doc.update({name: {"value": value} for name, value in extra.items()})
    return doc


def test_agree_applies_each_metrics_bound_and_exact_equality():
    bound = {name: b for name, _unit, _better, b in harness.END_TO_END}
    first = {"w": _result(1000.0, digest="aa", **{"sim.events": 7})}
    within = {"w": _result(1000.0 * (1 + 0.9 * bound["work_per_ref_s"]),
                           setup=0.2 * (1 + 0.9 * bound["setup_s"]),
                           digest="aa", **{"sim.events": 7})}
    rows = harness.agree(first, within, ["digest", "sim.events", "absent"])
    assert all(row["ok"] for row in rows) and len(rows) == 5
    outside = {"w": _result(1000.0 * (1 - 1.1 * bound["work_per_ref_s"]),
                            rss=30.0 * (1 + 1.1 * bound["peak_rss_mb"]),
                            digest="bb", **{"sim.events": 8})}
    missed = {r["metric"] for r in harness.agree(first, outside, ["digest", "sim.events"])
              if not r["ok"]}
    assert missed == {"work_per_ref_s", "peak_rss_mb", "digest", "sim.events"}


# -- the measuring loop and the verdict -----------------------------------


def test_repeat_warms_up_on_block_zero_then_walks_the_blocks():
    blocks = []

    def fake(block):
        blocks.append(block)
        return Outcome(work=10, digest=f"d{block}")

    reps = harness.repeat(fake, seconds=0.0)
    assert blocks == [0, *range(harness.MIN_REPS)]
    assert len(reps.walls_s) == len(reps.ref_walls_s) == harness.MIN_REPS
    assert [o.digest for o in reps.outcomes] == [f"d{b}" for b in range(harness.MIN_REPS)]
    assert harness.verdict(reps, pinned="d0") == (10 * harness.MIN_REPS, 0, [])


def test_reference_seconds_cancel_a_uniform_slowdown():
    nominal = harness.KERNEL_NOMINAL_S
    assert harness.reference_seconds(2.0, nominal, nominal) == pytest.approx(2.0)
    # The box runs 1.5x slower: wall and kernel both stretch, the result holds.
    assert harness.reference_seconds(3.0, 1.5 * nominal, 1.5 * nominal) == pytest.approx(2.0)
    assert harness.reference_seconds(2.5, nominal, 1.5 * nominal) == pytest.approx(2.0)
    assert harness.kernel(steps=500) > 0.0


def _reps(warmup, *outcomes):
    return harness.Reps(warmup=warmup, outcomes=list(outcomes))


def test_verdict_counts_mismatches_and_exceptions_as_failures():
    attempted, failed, problems = harness.verdict(
        _reps(Outcome(5, "a"), Outcome(5, "b"), Outcome(7, "c")), None)
    assert (attempted, failed) == (12, 5) and "not deterministic" in problems[0]

    same = _reps(Outcome(5, "a"), Outcome(5, "a"), Outcome(7, "c"))
    assert harness.verdict(same, "a") == (12, 0, [])
    attempted, failed, problems = harness.verdict(same, "pinned-other")
    assert (attempted, failed) == (12, 5) and "pinned" in problems[0]

    partly = Outcome(5, "a", failed=2, problems=["two units", "two units"])
    assert harness.verdict(_reps(Outcome(5, "a"), partly), None) == (5, 2, ["two units"])

    def stalls(block):
        raise RuntimeError("stalled")

    reps = harness.repeat(stalls, seconds=0.0)
    attempted, failed, problems = harness.verdict(reps, None)
    assert (attempted, failed) == (1, 1) and "stalled" in problems[0]


# -- digests and tracing on a tiny workload -------------------------------


def test_digest_is_stable_and_tracing_does_not_perturb_it():
    tiny = {
        "soak": lambda: workloads._soak(7, txns=150, workload="zipf", read_fraction=0.7),
        "check": lambda: workloads._check_explore(7, max_runs=12),
    }
    for name, build in tiny.items():
        first, second = build()(0), build()(0)
        assert build()(1).digest != first.digest, "blocks share inputs"
        assert first.digest == second.digest and first.failed == 0, name
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = tracer.run_root(lambda: build()(0))
        finally:
            tracer.uninstall()
        assert traced.digest == first.digest, f"tracing perturbed {name}"
        assert tracer.counts["sim.events"] > 0 and tracer.counts["txns"] > 0
        values = tracing.per_layer_metrics(
            tracer, traced, traced_wall_s=2.0, untraced_wall_s=1.0,
            warmup_wall_s=1.5, pool=None,
        )
        assert set(values) == {n for n, _u, _b in tracing.PER_LAYER}
        assert values["trace.overhead_ratio"] == 2.0
        assert values["trace.unattributed_share"] < 0.15
        assert values["net.reliable.calls"] == 0
    assert values["check.fingerprints"] > 0 and values["system.cluster.builds"] == 12


def test_uninstall_restores_every_entry_point():
    from repro.net.network import Network
    from repro.check import explorer, runner

    before = (Network._deliver, runner.run_schedule, explorer.run_schedule)
    tracer = tracing.Tracer()
    tracer.install()
    assert Network._deliver is not before[0]
    assert explorer.run_schedule is runner.run_schedule is not before[1]
    assert Network._deliver.__qualname__ == "Network._deliver"
    tracer.uninstall()
    assert (Network._deliver, runner.run_schedule, explorer.run_schedule) == before


def test_different_seeds_give_different_inputs():
    build = workloads._soak
    a = build(1, txns=100, workload="zipf", read_fraction=0.7)(0)
    b = build(2, txns=100, workload="zipf", read_fraction=0.7)(0)
    assert a.digest != b.digest


# -- names, caps, and BENCHMARK.json <-> code agreement -------------------


def test_metric_and_workload_names_fit_the_contract():
    names = [n for n, *_ in harness.END_TO_END] + [n for n, *_ in tracing.PER_LAYER]
    names += [w.name for w in workloads.WORKLOADS]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    units = [u for _n, u, *_ in harness.END_TO_END + tracing.PER_LAYER]
    assert all(UNIT.fullmatch(unit) for unit in units)
    assert 1 <= len(harness.END_TO_END) <= 16
    assert 1 <= len(tracing.PER_LAYER) <= 128
    assert 2 <= len(workloads.WORKLOADS) <= 8
    assert all(bound <= 0.25 for *_rest, bound in harness.END_TO_END)
    assert ("setup_s", "s", "lower") in [m[:3] for m in harness.END_TO_END]
    for layer in tracing.LAYERS:
        assert f"{layer}.self_s" in names
    for _layer, _target, points in tracing.ENTRY_POINTS:
        assert _layer in tracing.LAYERS and points


def test_benchmark_json_agrees_with_the_code():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["bench"] and doc["command"] == ["python3", "bench/run.py"]
    assert doc["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in doc["workloads"]] == [w.name for w in workloads.WORKLOADS]
    for entry, workload in zip(doc["workloads"], workloads.WORKLOADS):
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200
        assert workload.why in entry["why"] and workload.loop in entry["why"]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] \
        == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == list(tracing.PER_LAYER)
    expected = json.loads((BENCH / "expected.json").read_text())
    assert set(expected) == {w.name for w in workloads.WORKLOADS}


def test_exact_metrics_exclude_every_wall_clock_reading():
    exact = {n for n, *_ in tracing.PER_LAYER if tracing.is_exact(n)}
    assert {"sim.events", "net.msgs_sent", "model.sim_tps", "site.calls"} <= exact
    assert not exact & {"sim.self_s", "site.self_share", "sim.host_us_per_event",
                        "trace.overhead_ratio", "perf.pool.speedup_jobs2",
                        "bench.warmup_excess_s", "site.participant_self_share"}
