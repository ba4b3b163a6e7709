"""The trace sink: a ring buffer of :class:`~repro.obs.events.TraceEvent`.

One :class:`TraceSink` hangs off the network (``cluster.obs``) and every
layer emits into it.  Two properties matter more than anything else:

* **Zero interference.**  Emitting never touches the scheduler, the CPU
  model, or any RNG stream — tracing is pure observation, so a traced run
  and an untraced run of the same seed are *identical* in simulated time,
  message traffic, and outcomes.  (``tests/test_obs_export.py`` pins
  this.)
* **Near-zero overhead when disabled.**  Every emit site guards with
  ``if sink.enabled:`` so a disabled sink costs one attribute read per
  potential event — no kwargs dicts are built, nothing is appended.

Causality is threaded through the ``scope`` attribute: the network sets
``scope`` to the ``msg.recv`` event's id for the duration of the handler
activation it starts (and restores it afterwards), so any event emitted
from protocol code — and any message queued by it — is parented to the
receive that caused it.  Timers propagate the scope of the activation
that armed them.  The result is one causal tree per root stimulus.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterator, Optional

from repro.obs.events import EventKind, TraceEvent


class TraceSink:
    """Bounded, append-only event capture with causal scoping."""

    __slots__ = ("capacity", "enabled", "events", "dropped_events", "scope", "_seq")

    def __init__(self, capacity: int = 1 << 18, enabled: bool = False) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self.enabled = enabled
        self.events: deque[TraceEvent] = deque()
        self.dropped_events = 0  # oldest events evicted by the ring
        # The causal parent for events emitted "now" (the current
        # activation's msg.recv event, or -1 outside any activation).
        self.scope = -1
        self._seq = 0

    # -- emission -----------------------------------------------------------

    def emit(
        self,
        t: float,
        kind: EventKind,
        site: int = -1,
        txn: int = -1,
        parent: Optional[int] = None,
        **args: Any,
    ) -> int:
        """Record one event; returns its ``seq`` id (-1 when disabled).

        ``parent`` defaults to the current :attr:`scope`; pass it
        explicitly to link to a specific cause (e.g. a message's send
        event).  Hot paths should guard with ``if sink.enabled:`` before
        building ``args`` — emit itself also no-ops when disabled.
        """
        if not self.enabled:
            return -1
        seq = self._seq
        self._seq += 1
        if len(self.events) >= self.capacity:
            self.events.popleft()
            self.dropped_events += 1
        self.events.append(
            TraceEvent(
                seq=seq,
                t=t,
                kind=kind,
                site=site,
                txn=txn,
                parent=self.scope if parent is None else parent,
                args=args,
            )
        )
        return seq

    # -- queries --------------------------------------------------------------

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return (
            f"TraceSink({state}, events={len(self.events)}, "
            f"dropped={self.dropped_events})"
        )
