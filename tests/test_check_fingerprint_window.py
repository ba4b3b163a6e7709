"""Demand-driven state fingerprints: the search reads a window, nothing else.

``explorer._search`` asks each run for fingerprints at the choice points
it will read, ``[len(prefix), max_depth)``; every other caller of
``run_schedule`` asks for none.  The *eager* explorer — every consulted
choice point fingerprinted, as before the window existed — lives here
as the reference the demand-driven one must equal, not in ``src/``.
No test below reads a clock.
"""

import sys
from dataclasses import asdict, replace

import pytest

from repro.check import (
    CheckConfig,
    explore,
    export_counterexample,
    run_schedule,
    shrink,
)
from repro.check import explorer, runner
from repro.check.choices import ChoiceController
from repro.check.explorer import explore_parallel
from repro.cli import main
from repro.errors import CheckError
from repro.perf.pool import shutdown_pool

# bench/workloads.py's check-explore config (seed = 42 + block).
_BENCH = CheckConfig(
    sites=4, db_size=8, txns=6, seed=42, explore_fates=True,
    max_branch=4, max_drops=2, max_crashes=2, max_recoveries=2,
)
_BENCH_BUDGET = dict(max_runs=30, max_depth=80, stop_on_violation=False)


@pytest.fixture
def eager(monkeypatch):
    """Call it: from then on every run the explorer starts fingerprints
    every choice point, whatever window the search asked for."""
    real = explorer.run_schedule

    def run_schedule_eagerly(config, advice=(), trace=None, *, fingerprint_at=None):
        return real(config, advice, trace, fingerprint_at=range(sys.maxsize))

    return lambda: monkeypatch.setattr(explorer, "run_schedule", run_schedule_eagerly)


def _outcome(result):
    return (
        asdict(result.stats),
        result.fingerprints,
        result.counterexample,
        result.violation,
    )


@pytest.mark.parametrize(
    "config",
    [replace(_BENCH, seed=seed) for seed in (42, 43, 44, 45, 46, 7)]
    + [replace(_BENCH, seed=11, recovery_policy="parallel")],
    ids=lambda c: f"seed{c.seed}-{c.recovery_policy}",
)
def test_search_equals_the_eager_reference(config, eager):
    lazy = explore(config, **_BENCH_BUDGET)
    eager()
    reference = explore(config, **_BENCH_BUDGET)
    assert _outcome(lazy) == _outcome(reference)
    assert lazy.stats.states > 0 and lazy.stats.pruned_visited > 0


def test_selftest_finds_shrinks_and_replays_the_same_counterexample(eager):
    config = CheckConfig(mutate=True)  # `repro check selftest`
    lazy = explore(config, max_runs=60)
    eager()
    reference = explore(config, max_runs=60)
    assert lazy.found
    assert _outcome(lazy) == _outcome(reference)
    small = shrink(config, lazy.counterexample)
    assert small.invariant == lazy.violation.invariant
    replayed = run_schedule(config, small.vector)
    assert replayed.violations == small.run.violations
    assert replayed.violations[0].invariant == small.invariant
    assert replayed.events_fired == small.run.events_fired


def test_parallel_search_equals_the_eager_reference(eager):
    config = replace(_BENCH, sites=3, txns=3)
    budget = dict(max_runs=24, max_depth=40, stop_on_violation=False, jobs=2)
    # Workers are forked from the persistent pool: rebuild it on each
    # side of the patch so they inherit the explorer the parent has.
    try:
        shutdown_pool()
        lazy = explore_parallel(config, **budget)
        shutdown_pool()
        eager()
        reference = explore_parallel(config, **budget)
    finally:
        shutdown_pool()
    assert _outcome(lazy) == _outcome(reference)
    assert lazy.stats.runs > 1 and lazy.fingerprints


@pytest.fixture
def fingerprint_calls(monkeypatch):
    """Count ``cluster_fingerprint`` calls where ``run_schedule`` makes them."""
    calls = []
    real = runner.cluster_fingerprint

    def counting(cluster):
        calls.append(1)
        return real(cluster)

    monkeypatch.setattr(runner, "cluster_fingerprint", counting)
    return calls


def test_fingerprints_taken_equal_fingerprints_read(fingerprint_calls, monkeypatch):
    max_depth = 12  # shallow enough that the upper bound of the window bites
    runs = []
    real = explorer.run_schedule

    def recording(config, advice=(), trace=None, **kwargs):
        run = real(config, advice, trace, **kwargs)
        runs.append((len(advice), run))
        return run

    monkeypatch.setattr(explorer, "run_schedule", recording)
    explore(_BENCH, max_runs=30, max_depth=max_depth, stop_on_violation=False)

    consulted = sum(len(run.decisions) for _, run in runs)
    in_window = sum(
        len(range(prefix_len, min(max_depth, len(run.decisions))))
        for prefix_len, run in runs
    )
    assert len(fingerprint_calls) == in_window < consulted
    assert any(len(run.decisions) > max_depth for _, run in runs)
    for prefix_len, run in runs:
        for index, decision in enumerate(run.decisions):
            assert bool(decision.fingerprint) == (prefix_len <= index < max_depth)


def test_shrink_and_replay_take_no_fingerprints(fingerprint_calls, tmp_path, capsys):
    config = CheckConfig(mutate=True)
    found = explore(config, max_runs=60)
    assert found.found and fingerprint_calls
    del fingerprint_calls[:]

    small = shrink(config, found.counterexample)
    assert small.tests_run >= 2
    _manifest, exported = export_counterexample(tmp_path / "out", config, small.vector)
    assert main(["check", "replay", "--file", str(tmp_path / "out" / "schedule.json")]) == 0
    assert "replay matches the recorded run" in capsys.readouterr().out
    assert not fingerprint_calls
    assert not any(d.fingerprint for d in small.run.decisions + exported.decisions)


def test_root_run_as_the_explorer_asks_fingerprints_every_decision():
    # The search's first run: empty prefix, so the window opens at 0.
    root = run_schedule(
        CheckConfig(), [], fingerprint_at=explorer._read_window([], 40)
    )
    assert root.decisions and len(root.decisions) <= 40
    assert all(d.fingerprint for d in root.decisions)
    # Fingerprinting observes; the run itself is the one everybody else gets.
    plain = run_schedule(CheckConfig(), [])
    assert [replace(d, fingerprint="") for d in root.decisions] == plain.decisions
    assert (root.events_fired, root.sim_time_ms) == (plain.events_fired, plain.sim_time_ms)


def test_expanding_a_run_that_was_not_asked_for_its_window_raises():
    config = CheckConfig(txns=2)
    stats = explorer.ExplorationStats()
    unasked = run_schedule(config, [])  # how shrink/replay call it
    with pytest.raises(CheckError, match="carries no fingerprint"):
        explorer._expand_children(
            unasked, [], set(), stats, max_depth=40, sleep_sets=True
        )
    # A window that drifted from the prefix is caught at the first index
    # the reader wants and the run did not take.
    short = run_schedule(config, [], fingerprint_at=range(1, 40))
    with pytest.raises(CheckError, match="decision 0 "):
        explorer._expand_children(
            short, [], set(), stats, max_depth=40, sleep_sets=True
        )
    assert stats.pruned_visited == 0
    # Without a state function a controller cannot honour any window.
    controller = ChoiceController([], fingerprint_at=range(10))
    controller.choose("order", ["a", "b"])
    assert controller.trace[0].fingerprint == ""
