"""repro.check explorer: bounded DFS, pruning, determinism."""

from dataclasses import asdict

import pytest

from repro.check import CheckConfig, explore, run_schedule


def test_explorer_finds_the_planted_mutation():
    # The PR-1 protocol mutation (fail-lock setting disabled): the
    # explorer must find a violating schedule within a small budget.
    result = explore(CheckConfig(mutate=True), max_runs=60)
    assert result.found
    assert result.violation.invariant == "faillock-coverage"
    assert result.stats.runs <= 60
    # The counterexample replays to the same violation on demand.
    replay = run_schedule(result.config, result.counterexample)
    assert any(
        v.invariant == "faillock-coverage" for v in replay.violations
    )


def test_exploration_is_deterministic():
    first = explore(CheckConfig(mutate=True), max_runs=60)
    second = explore(CheckConfig(mutate=True), max_runs=60)
    assert first.stats == second.stats
    assert first.counterexample == second.counterexample


def test_clean_config_explores_without_violations():
    result = explore(CheckConfig(txns=2), max_runs=40)
    assert not result.found
    assert result.counterexample is None
    assert result.stats.violations_found == 0
    assert result.stats.runs > 1  # it actually branched
    assert result.stats.states > 0


def test_budget_exhaustion_is_flagged():
    result = explore(CheckConfig(txns=2), max_runs=3)
    assert result.stats.runs == 3
    assert result.stats.budget_exhausted
    exhaustive = explore(CheckConfig(txns=1, explore_faults=False), max_runs=500)
    assert not exhaustive.stats.budget_exhausted  # frontier drained first


def test_visited_state_pruning_prunes():
    # Small space, generous budget, sleep sets off so commuting branches
    # actually get expanded: some of them must then collapse onto
    # already-expanded state fingerprints.
    result = explore(CheckConfig(txns=2), max_runs=200, sleep_sets=False)
    assert result.stats.pruned_visited > 0
    assert not result.stats.budget_exhausted  # space fully drained


def test_sleep_sets_reduce_runs_without_losing_the_bug():
    config = CheckConfig(mutate=True)
    pruned = explore(config, max_runs=120)
    unpruned = explore(config, max_runs=120, sleep_sets=False)
    assert pruned.found and unpruned.found
    # Both find the same (shrinkable) class of bug...
    assert pruned.violation.invariant == unpruned.violation.invariant
    # ...and the heuristic never explores MORE than the full expansion.
    assert pruned.stats.runs <= unpruned.stats.runs
    assert pruned.stats.pruned_sleep > 0


def test_keep_going_collects_multiple_violating_schedules():
    stopped = explore(CheckConfig(mutate=True), max_runs=40)
    kept = explore(
        CheckConfig(mutate=True), max_runs=40, stop_on_violation=False
    )
    assert kept.stats.violations_found >= stopped.stats.violations_found
    assert kept.found  # first counterexample still recorded


@pytest.mark.slow
def test_deep_exploration_stays_deterministic_and_clean():
    # Deep sweep of the CORRECT protocol: a larger budget with fates
    # enabled must stay violation-free and bit-reproducible.  Excluded
    # from tier-1 (see pyproject `-m "not slow"`); CI runs it via
    # `pytest -m slow`.
    config = CheckConfig(txns=6, explore_fates=True, max_drops=2, max_branch=4)
    first = explore(
        config, max_runs=400, stop_on_violation=False, sleep_sets=False
    )
    assert first.stats.violations_found == 0
    assert first.stats.runs == 400  # space is larger than the budget
    assert first.stats.budget_exhausted
    second = explore(
        config, max_runs=400, stop_on_violation=False, sleep_sets=False
    )
    assert first.stats == second.stats
    # Uncapped, the same space drains completely — and stays clean.
    full = explore(
        config, max_runs=2000, stop_on_violation=False, sleep_sets=False
    )
    assert not full.stats.budget_exhausted
    assert full.stats.violations_found == 0
    assert full.stats.runs > 400


# The benchmark's check-explore workload runs ``on_demand`` only; these pin
# the search's {"stats", "fingerprints"} under the two batch-copier policies:
# a host-only change must leave them equal.
@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("policy", ["two_step", "parallel"])
def test_batch_copier_policy_searches_are_pinned(policy, seed, pin):
    config = CheckConfig(
        sites=4, db_size=8, txns=6, seed=seed, explore_fates=True,
        recovery_policy=policy, max_branch=4, max_drops=2, max_crashes=2,
        max_recoveries=2,
    )
    result = explore(config, max_runs=80, max_depth=80, stop_on_violation=False)
    assert result.stats.violations_found == 0
    pin({"stats": asdict(result.stats), "fingerprints": list(result.fingerprints)})
