"""VirtualClock: monotonicity and construction."""

import pytest

from repro.errors import SimulationError
from repro.sim.clock import VirtualClock
from repro.sim.scheduler import EventScheduler


def now(clock: VirtualClock) -> float:
    """The clock's time, read the way the program reads it."""
    return EventScheduler(clock).now


def test_starts_at_zero_by_default():
    assert now(VirtualClock()) == 0.0


def test_starts_at_given_time():
    assert now(VirtualClock(5.5)) == 5.5


def test_rejects_negative_start():
    with pytest.raises(SimulationError):
        VirtualClock(-1.0)


def test_advances_forward():
    clock = VirtualClock()
    clock.advance_to(10.0)
    assert now(clock) == 10.0
    clock.advance_to(10.5)
    assert now(clock) == 10.5


def test_allows_equal_time_advance():
    clock = VirtualClock(3.0)
    clock.advance_to(3.0)
    assert now(clock) == 3.0


def test_rejects_backwards_advance():
    clock = VirtualClock(3.0)
    with pytest.raises(SimulationError):
        clock.advance_to(2.999)


def test_repr_mentions_time():
    assert "7.000" in repr(VirtualClock(7))
