"""DeterministicRng: reproducibility and stream independence."""

import pytest

from repro.errors import SimulationError
from repro.sim.rng import DeterministicRng


def test_same_seed_same_sequence():
    a = DeterministicRng(7).stream("workload")
    b = DeterministicRng(7).stream("workload")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_seeds_differ():
    a = DeterministicRng(7).stream("workload")
    b = DeterministicRng(8).stream("workload")
    assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]


def test_streams_are_independent():
    rng = DeterministicRng(7)
    first = [rng.stream("a").random() for _ in range(5)]
    # Drawing from stream "b" must not perturb stream "a".
    rng2 = DeterministicRng(7)
    rng2.stream("b").random()
    second = [rng2.stream("a").random() for _ in range(5)]
    assert first == second


def test_stream_is_cached():
    rng = DeterministicRng(7)
    assert rng.stream("x") is rng.stream("x")


def test_distinct_names_distinct_sequences():
    rng = DeterministicRng(7)
    a = [rng.stream("a").random() for _ in range(5)]
    b = [rng.stream("b").random() for _ in range(5)]
    assert a != b


def test_rejects_non_int_seed():
    with pytest.raises(SimulationError):
        DeterministicRng("nope")  # type: ignore[arg-type]
