"""repro.check shrinking: delta-debugging decision vectors."""

import importlib
from types import SimpleNamespace

import pytest

from repro.check import CheckConfig, run_schedule, shrink
from repro.errors import CheckError

# max_recoveries=0 keeps post-crash fault points degenerate (a single
# option is never a choice), so the noise positions in the padded vector
# land on order choices that do not matter for the bug.  With recovery
# enabled the story changes: taking alternative 1 at a later fault point
# RECOVERS the crashed site, which restores fail-lock coverage and masks
# the planted mutation — a correct (and instructive) non-violation; see
# test_recovery_masks_the_mutation.
_CONFIG = CheckConfig(mutate=True, max_recoveries=0, txns=4)


def test_shrink_removes_noise_deviations():
    noisy = [1, 1, 1, 0, 1]
    assert run_schedule(_CONFIG, noisy).violations  # precondition
    result = shrink(_CONFIG, noisy)
    assert result.vector == [1]
    assert result.removed == 3  # nonzero deviations dropped
    assert result.invariant == "faillock-coverage"
    assert result.tests_run > 0
    assert any(
        v.invariant == result.invariant for v in result.run.violations
    )


def test_shrunk_vector_is_one_minimal():
    result = shrink(_CONFIG, [1, 1, 1, 0, 1])
    # 1-minimality: zeroing any single remaining deviation loses the bug.
    for position, value in enumerate(result.vector):
        if value == 0:
            continue
        weakened = list(result.vector)
        weakened[position] = 0
        assert not run_schedule(_CONFIG, weakened).violations
    # And lowering any remaining value does too (value minimality).
    for position, value in enumerate(result.vector):
        for lower in range(1, value):
            lowered = list(result.vector)
            lowered[position] = lower
            assert not run_schedule(_CONFIG, lowered).violations


def test_shrink_is_deterministic():
    first = shrink(_CONFIG, [1, 1, 1, 0, 1])
    second = shrink(_CONFIG, [1, 1, 1, 0, 1])
    assert first.vector == second.vector
    assert first.tests_run == second.tests_run


def test_shrink_of_already_minimal_vector_is_identity():
    result = shrink(_CONFIG, [1])
    assert result.vector == [1]
    assert result.removed == 0


def test_shrink_requires_a_violating_input():
    with pytest.raises(CheckError):
        shrink(_CONFIG, [])  # empty vector is clean even when mutated
    with pytest.raises(CheckError):
        shrink(CheckConfig(), [1])  # correct protocol never violates


def test_recovery_masks_the_mutation():
    # Documented behaviour (see docs/MODELCHECK.md): crashing site 0 and
    # recovering it later re-establishes coverage, so the mutated system
    # shows no violation — shrinking hinges on the crash staying in force.
    with_recovery = CheckConfig(mutate=True, txns=4)  # max_recoveries=1
    crash_only = run_schedule(with_recovery, [1])
    assert crash_only.violations
    # Position 4 is the next fault point (txn 2 boundary); alternative 1
    # there is "recover site 0".
    recover_point = next(
        i
        for i, d in enumerate(crash_only.decisions[1:], start=1)
        if d.kind == "fault"
    )
    vector = [0] * (recover_point + 1)
    vector[0] = 1
    vector[recover_point] = 1
    crash_then_recover = run_schedule(with_recovery, vector)
    assert crash_then_recover.chosen.count(1) == 2
    assert not crash_then_recover.violations


def test_shrink_takes_complements_doubles_granularity_and_lowers_values(
    monkeypatch,
) -> None:
    """ddmin against a bug that needs two separated deviations, one of
    them at least 2: no half of the noisy vector keeps it, so ddmin must
    refine (granularity doubling) and keep complements of chunks, and the
    value-lowering pass must bring 3 down to 2 and 2 down to 1."""
    runs = []

    def fake_run_schedule(config, vector):
        runs.append(list(vector))
        violating = len(vector) > 5 and vector[1] >= 2 and vector[5] >= 1
        return SimpleNamespace(
            violations=[SimpleNamespace(invariant="planted")] if violating else [],
            decisions=[SimpleNamespace(chosen=v) for v in vector],
        )

    # ``repro.check.shrink`` the attribute is the function; this is its module.
    module = importlib.import_module("repro.check.shrink")
    monkeypatch.setattr(module, "run_schedule", fake_run_schedule)
    result = shrink(CheckConfig(), [1, 3, 1, 1, 1, 2, 1, 1])
    assert result.vector == [0, 2, 0, 0, 0, 1]
    assert result.invariant == "planted"
    assert result.removed == 6
    assert result.tests_run == len(runs)
    # Complements were kept: a candidate that zeroes one chunk of two
    # positions and keeps the other six did reproduce the bug.
    assert [1, 3, 0, 0, 1, 2, 1, 1] in runs
