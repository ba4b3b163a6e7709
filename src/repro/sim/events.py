"""Scheduler events.

An event is a timestamped callback.  Events carry an insertion sequence
number so that two events scheduled for the same instant always fire in the
order they were scheduled — this is what makes whole-system runs bitwise
reproducible.

The scheduler's heap orders plain ``(time, seq, ...)`` tuples, so
:class:`Event` instances themselves are never compared: sequence numbers
are unique, which means tuple comparison is resolved at C level without
ever reaching the third element.  ``Event`` is a hand-rolled ``__slots__``
class (not a dataclass) because it sits on the hottest allocation path of
the whole simulator.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.scheduler import EventScheduler


class Event:
    """A single scheduled, cancellable action.

    Ordering in the scheduler is ``(time, seq)``: earlier times first,
    insertion order breaks ties.  ``args`` are passed to ``action`` when
    the event fires, which lets hot call sites schedule pre-bound methods
    instead of allocating closures.
    """

    __slots__ = ("time", "seq", "action", "args", "label", "cancelled", "_scheduler")

    def __init__(
        self,
        time: float,
        seq: int,
        action: Callable[..., None],
        args: tuple[Any, ...] = (),
        label: str = "",
        scheduler: Optional["EventScheduler"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.action = action
        self.args = args
        self.label = label
        self.cancelled = False
        self._scheduler = scheduler

    def cancel(self) -> None:
        """Mark the event so the scheduler skips it when popped.

        The owning scheduler is notified so its live-event count stays
        exact and it can compact the heap when cancelled entries pile up
        (timer-heavy workloads cancel far more events than they fire).
        """
        if not self.cancelled:
            self.cancelled = True
            if self._scheduler is not None:
                self._scheduler._note_cancel()

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time:.3f}, seq={self.seq}, {self.label!r}{state})"
