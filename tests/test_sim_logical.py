"""LogicalClock: monotone ticks."""

from repro.sim.logical import LogicalClock


def test_ticks_are_strictly_increasing():
    clock = LogicalClock()
    stamps = [clock.tick() for _ in range(5)]
    assert stamps == [1, 2, 3, 4, 5]


def test_custom_start():
    clock = LogicalClock(start=10)
    assert clock.tick() == 11
