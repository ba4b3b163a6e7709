"""The look-ahead search: ``explore``'s answer does not depend on ``jobs``.

With ``jobs > 1`` pool workers run the prefixes on top of the frontier
while the search runs the one it popped, and the search takes a worker's
run only when it pops that prefix (and deals nothing beside a taken
run).  Everything the search reports must be what ``jobs=1`` reports,
whichever worker finished first; a run nobody took must not leak into a
later call; a dead worker must fail the search, not hang it.
"""

import functools
import os
import signal
from dataclasses import asdict, replace

import pytest

from repro.check import CheckConfig, explore
from repro.check import explorer
from repro.perf import pool
from repro.perf.pool import WorkerPoolError, resolve_jobs, run_chunked, shutdown_pool

# bench/workloads.py's check-explore config and budget (seed = 42 + block).
_BENCH = CheckConfig(
    sites=4, db_size=8, txns=6, seed=42, explore_fates=True,
    recovery_policy="on_demand", max_branch=4, max_drops=2, max_crashes=2,
    max_recoveries=2, min_up=1,
)
_BENCH_BUDGET = dict(max_runs=100, max_depth=80, stop_on_violation=False)


def _answer(result):
    run = result.counterexample_run
    return (
        asdict(result.stats),
        result.fingerprints,
        result.counterexample,
        result.violation,
        run.chosen if run else None,
    )


@pytest.mark.parametrize(
    "config, budget",
    [(replace(_BENCH, seed=seed), _BENCH_BUDGET) for seed in (42, 43, 44)]
    + [
        (CheckConfig(mutate=True), dict(max_runs=60, stop_on_violation=stop))
        for stop in (True, False)
    ],
    ids=["bench42", "bench43", "bench44", "mutate-stop", "mutate-go-on"],
)
def test_the_answer_does_not_depend_on_jobs(config, budget):
    serial = explore(config, **budget, jobs=1)
    assert serial.stats.runs > 1
    for jobs in sorted({2, 3, resolve_jobs(None)}):
        assert _answer(explore(config, **budget, jobs=jobs)) == _answer(serial), jobs
    assert _answer(explore(config, **budget)) == _answer(serial)  # every CPU
    if config.mutate:
        assert serial.found and serial.counterexample_run.violations


def test_the_search_deals_ahead_only_beside_a_run_it_makes_itself(monkeypatch):
    """A popped prefix a worker ran is taken, and the look-ahead step is
    not called in that iteration: the taken run's children, which the
    search pops next, are not on the frontier yet, so whatever it dealt
    would be buried under them.  Recorded per iteration (each ends in
    ``_expand_children``: the bench shape finds no violation), by calls,
    not deals: a busy worker makes the step deal nothing."""
    events = []
    real_deal, real_take, real_expand = (
        explorer._deal_ahead, pool.Dealer.take, explorer._expand_children
    )

    def deal_ahead(*args):
        events.append("deal")
        return real_deal(*args)

    def take(self, key):
        events.append("take")
        return real_take(self, key)

    def expand(*args, **kwargs):
        events.append("end")
        return real_expand(*args, **kwargs)

    monkeypatch.setattr(explorer, "_deal_ahead", deal_ahead)
    monkeypatch.setattr(pool.Dealer, "take", take)
    monkeypatch.setattr(explorer, "_expand_children", expand)
    taken = 0
    for seed in (42, 43, 44):
        config = replace(_BENCH, seed=seed)
        events.clear()
        result = explore(config, **_BENCH_BUDGET, jobs=2)
        assert result.stats.violations_found == 0
        iterations = " ".join(events).split("end")
        assert iterations.pop().strip() == ""
        assert len(iterations) == result.stats.runs
        for index, iteration in enumerate(iterations):
            assert iteration.split() in (["take"], ["deal"]), (seed, index)
        taken += sum(iteration.split() == ["take"] for iteration in iterations)
        assert _answer(result) == _answer(explore(config, **_BENCH_BUDGET, jobs=1))
    assert taken  # the workers' runs were used, so the rule was exercised


def test_a_run_nobody_took_is_never_read_by_the_next_call():
    """The planted bug stops the search at its second run, while the one
    worker runs the next frontier prefix: that reply stays in the pipe."""
    shutdown_pool()
    stopped = explore(CheckConfig(mutate=True), max_runs=60, jobs=2)
    assert stopped.found and stopped.stats.runs == 2
    assert pool._workers[0].ticket is not None  # its run was never taken
    assert _answer(explore(_BENCH, **_BENCH_BUDGET, jobs=2)) == _answer(
        explore(_BENCH, **_BENCH_BUDGET, jobs=1)
    )
    assert run_chunked(abs, [-1, -2, -3], jobs=2) == [1, 2, 3]


def test_a_worker_killed_during_the_search_fails_it_without_hanging(monkeypatch):
    shutdown_pool()
    run_chunked(str, range(2), jobs=2)  # fork before the patch
    real = explorer._expand_children
    expanded = []

    def kill_the_workers_then_expand(run, prefix, *args, **kwargs):
        # The search expands in the parent only, so the patch is seen;
        # run_prefix, which the workers run, is left alone.
        expanded.append(prefix)
        if len(expanded) == 3:
            for worker in pool._workers:
                os.kill(worker.process.pid, signal.SIGKILL)
        return real(run, prefix, *args, **kwargs)

    def hung(signum, frame):
        raise TimeoutError("the search hung on a dead worker")

    monkeypatch.setattr(explorer, "_expand_children", kill_the_workers_then_expand)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)  # the whole search takes well under a second
    try:
        with pytest.raises(WorkerPoolError, match="repro.check.explorer.run_prefix"):
            explore(_BENCH, **_BENCH_BUDGET, jobs=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(expanded) >= 3 and not pool._workers
    monkeypatch.undo()
    # The next search forks fresh workers and gives the serial answer.
    assert _answer(explore(_BENCH, max_runs=30, jobs=2)) == _answer(
        explore(_BENCH, max_runs=30, jobs=1)
    )


def test_a_replaced_run_schedule_runs_every_prefix_in_process(monkeypatch):
    """A worker forked before the patch would skip it, so the search makes
    every run itself: a wrapper (a profiler's) sees all of them."""
    shutdown_pool()
    run_chunked(str, range(2), jobs=2)  # fork before the patch
    real = explorer.run_schedule
    calls = []

    @functools.wraps(real)
    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(explorer, "run_schedule", counted)
    result = explore(_BENCH, max_runs=30, jobs=2)
    assert len(calls) == result.stats.runs == 30
    assert all(worker.ticket is None for worker in pool._workers)
    monkeypatch.undo()
    assert _answer(result) == _answer(explore(_BENCH, max_runs=30, jobs=1))


def test_a_search_forks_no_more_workers_than_it_can_deal_runs_to():
    shutdown_pool()
    explore(_BENCH, max_runs=3, jobs=8)
    assert len(pool._workers) == 2  # ``max_runs - 1``, not ``jobs - 1``
