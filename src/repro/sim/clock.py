"""Virtual clock measured in simulated milliseconds.

The clock only moves forward, and only the scheduler advances it.  Keeping
the clock in its own object (rather than a bare float on the scheduler) lets
sites, networks, and metrics share one time source without holding a
reference to the scheduler itself.
"""

from __future__ import annotations

from repro.errors import SimulationError


class VirtualClock:
    """Monotonically non-decreasing simulated time in milliseconds."""

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise SimulationError(f"clock cannot start in the past: {start}")
        self._now = float(start)

    def advance_to(self, time: float) -> None:
        """Move the clock forward to ``time``.

        Raises :class:`SimulationError` if ``time`` is in the past; equal
        times are allowed (many events may share a timestamp).
        """
        if time < self._now:
            raise SimulationError(
                f"clock cannot move backwards: {self._now} -> {time}"
            )
        self._now = time

    def __repr__(self) -> str:
        return f"VirtualClock(now={self._now:.3f})"
