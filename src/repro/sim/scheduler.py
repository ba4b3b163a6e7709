"""Deterministic event scheduler (the heart of the simulator).

A binary heap ordered by ``(time, insertion sequence)``.  All system
activity — message deliveries, CPU completions, timeouts — flows through
one scheduler instance, so a run is a pure function of the configuration
and the seed.

Performance notes (this is the hottest loop in the repository; see
docs/PERFORMANCE.md):

* Heap entries are plain tuples ``(time, seq, action, payload)``, compared
  entirely at C level — sequence numbers are unique, so comparison never
  reaches the callable.
* :meth:`post` / :meth:`post_at` are the allocation-light fast path used
  by the network and CPU model: no :class:`Event` object is created, and
  ``payload`` carries the action's arguments so call sites need no
  closures.  :meth:`schedule` / :meth:`schedule_at` return a cancellable
  :class:`Event` for callers that need one (timers).
* Cancelled events are skipped lazily when popped, but the scheduler
  keeps an exact live count (:attr:`pending` excludes cancelled entries)
  and compacts the heap in place once cancelled entries outnumber live
  ones — timer-heavy workloads (retransmission backoff) would otherwise
  accumulate unbounded dead entries.
* **Batched same-instant dispatch**: while :meth:`run` is draining, any
  entry scheduled for the instant being processed (a zero-delay post, or
  a ``post_at`` of the current time — zero-latency deliveries and
  activation hand-offs are ~half of all events in the concurrent preset)
  goes to a FIFO *now-queue* instead of the heap, and is fired without
  ever paying a ``heappush``/``heappop``.  Ordering is preserved because
  every heap entry due at the current instant necessarily carries a
  smaller sequence number than every now-queue entry (it was scheduled
  before the instant began), so draining "heap entries due now, then the
  now-queue in FIFO order" is exactly ``(time, seq)`` order.

Tie-break contract (a public guarantee)
---------------------------------------

Events scheduled for the **same simulated time fire in posting order**:
every scheduling call (:meth:`post`, :meth:`post_at`, :meth:`schedule`,
:meth:`schedule_at`) draws the next value of one shared insertion
sequence, and the heap orders entries by ``(time, seq)``.  The guarantee
holds across the fast path and the cancellable path, is unaffected by
cancellations and heap compaction (surviving entries keep their keys),
and is pinned by ``tests/test_sim_scheduler.py::test_tie_break_contract``.

The :mod:`repro.check` model checker relies on this contract: its
scheduler choice points enumerate *alternative* orderings of same-time
events, which is only a well-defined schedule space because the default
order is total and stable.  Installing :attr:`tie_breaker` routes
:meth:`run` through a choice-aware loop; with the hook left ``None``
(the default) the hot loop is byte-for-byte the original and every
existing seed replays identically.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Optional

from repro.errors import SchedulerError
from repro.sim.clock import VirtualClock
from repro.sim.events import Event

# Heap-entry marker: the entry's payload is a cancellable Event rather
# than a plain argument tuple.  ``None`` never collides with a real
# action callable.
_CANCELLABLE = None

# Compact only once at least this many cancelled entries have piled up;
# below it the rebuild costs more than the dead entries do.
_COMPACT_MIN_CANCELLED = 64


class EventScheduler:
    """Priority-queue event loop over a :class:`VirtualClock`."""

    def __init__(self, clock: Optional[VirtualClock] = None) -> None:
        self.clock = clock if clock is not None else VirtualClock()
        # Entries: (time, seq, action, args) for fire-and-forget posts,
        # (time, seq, None, event) for cancellable events.
        self._heap: list[tuple[float, int, Optional[Callable[..., None]], Any]] = []
        # Same-instant fast lane (see the module docstring).  Only
        # populated while the hot loop is draining (``_batching``); the
        # loop's ``finally`` flushes any leftovers back into the heap, so
        # outside :meth:`run` the queue is always empty and every other
        # method (``step``, ``run_until``) sees the whole schedule in
        # ``_heap``.  A reader called from *inside* a handler must read
        # both (``repro.check.fingerprint`` does).
        self._nowq: deque[tuple[float, int, Optional[Callable[..., None]], Any]] = deque()
        self._batching = False
        # Releases skipped (see Network._finish_activation): only while
        # run()'s hot loop drains, which counts them as fired and ends at
        # the latest one's time, as if each had fired and changed nothing.
        self._skipping = False
        self._skipped = 0
        self._skipped_until = 0.0
        self._seq = 0
        self._fired = 0
        self._cancelled = 0
        self._running = False
        self.compactions = 0
        # Optional schedule-space choice hook (repro.check).  When set,
        # run() routes through _run_choosing, which hands every group of
        # same-time live entries to the callable and fires the entry at
        # the returned index first.  None (the default) keeps the
        # original hot loop untouched.
        self.tie_breaker: Optional[
            Callable[[list[tuple[float, int, Any, Any]]], int]
        ] = None

    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self.clock._now

    @property
    def pending(self) -> int:
        """Number of *live* events still queued (cancelled ones excluded)."""
        return len(self._heap) + len(self._nowq) - self._cancelled

    @property
    def fired(self) -> int:
        """Total number of events that have executed."""
        return self._fired

    # -- scheduling ----------------------------------------------------------

    def post(
        self,
        delay: float,
        action: Callable[..., None],
        args: tuple[Any, ...] = (),
    ) -> None:
        """Schedule ``action(*args)`` to run ``delay`` ms from now.

        The allocation-light fast path: no :class:`Event` is created and
        the schedule cannot be cancelled.  Use :meth:`schedule` when the
        caller needs a handle.
        """
        if delay < 0:
            raise SchedulerError(f"cannot schedule in the past: delay={delay}")
        seq = self._seq
        self._seq = seq + 1
        if delay == 0.0 and self._batching:
            self._nowq.append((self.clock._now, seq, action, args))
        else:
            heapq.heappush(self._heap, (self.clock._now + delay, seq, action, args))

    def post_at(
        self,
        time: float,
        action: Callable[..., None],
        args: tuple[Any, ...] = (),
    ) -> None:
        """Schedule ``action(*args)`` at an absolute simulated time."""
        now = self.clock._now
        if time < now:
            raise SchedulerError(
                f"cannot schedule at {time}, now is {now}"
            )
        seq = self._seq
        self._seq = seq + 1
        if time == now and self._batching:
            self._nowq.append((time, seq, action, args))
        else:
            heapq.heappush(self._heap, (time, seq, action, args))

    def schedule(
        self,
        delay: float,
        action: Callable[..., None],
        label: str = "",
        args: tuple[Any, ...] = (),
    ) -> Event:
        """Schedule ``action(*args)`` to run ``delay`` ms from now.

        Returns the :class:`Event`, which the caller may ``cancel()``.
        """
        if delay < 0:
            raise SchedulerError(f"cannot schedule in the past: delay={delay}")
        seq = self._seq
        self._seq = seq + 1
        event = Event(self.clock._now + delay, seq, action, args, label, self)
        if delay == 0.0 and self._batching:
            self._nowq.append((event.time, seq, _CANCELLABLE, event))
        else:
            heapq.heappush(self._heap, (event.time, seq, _CANCELLABLE, event))
        return event

    def schedule_at(
        self,
        time: float,
        action: Callable[..., None],
        label: str = "",
        args: tuple[Any, ...] = (),
    ) -> Event:
        """Schedule ``action`` at an absolute simulated time."""
        if time < self.clock._now:
            raise SchedulerError(
                f"cannot schedule at {time}, now is {self.clock._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, action, args, label, self)
        if time == self.clock._now and self._batching:
            self._nowq.append((time, seq, _CANCELLABLE, event))
        else:
            heapq.heappush(self._heap, (time, seq, _CANCELLABLE, event))
        return event

    # -- cancellation bookkeeping -------------------------------------------

    def _note_cancel(self) -> None:
        """An :class:`Event` in the heap was cancelled (called by the event).

        Keeps :attr:`pending` exact and compacts the heap once cancelled
        entries outnumber live ones.
        """
        self._cancelled += 1
        if (
            self._cancelled >= _COMPACT_MIN_CANCELLED
            and self._cancelled * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place.

        In-place (slice assignment) so the run loop's local heap binding
        stays valid when a handler's cancel triggers compaction mid-run.
        Pop order is unaffected: surviving entries keep their (time, seq)
        keys, and heapify restores the heap invariant over exactly those.
        """
        heap = self._heap
        heap[:] = [
            entry
            for entry in heap
            if entry[2] is not _CANCELLABLE or not entry[3].cancelled
        ]
        heapq.heapify(heap)
        if self._nowq:
            # Cancelled entries can sit in the now-queue too (a handler
            # cancelling a timer it scheduled this instant).  Mutated in
            # place, like the heap, so the run loop's local binding stays
            # valid; the FIFO order of survivors is preserved.
            live = [
                entry
                for entry in self._nowq
                if entry[2] is not _CANCELLABLE or not entry[3].cancelled
            ]
            self._nowq.clear()
            self._nowq.extend(live)
        self._cancelled = 0
        self.compactions += 1

    def clear(self) -> None:
        """Drop every queued entry without firing it (what a closed
        cluster left unfinished).  ``fired`` and the clock are kept."""
        self._heap.clear()
        self._nowq.clear()
        self._cancelled = 0

    # -- running -------------------------------------------------------------

    def step(self) -> bool:
        """Fire the single next event.  Returns False if none remain."""
        heap = self._heap
        while heap:
            time, _seq, action, payload = heapq.heappop(heap)
            if action is _CANCELLABLE:
                if payload.cancelled:
                    self._cancelled -= 1
                    continue
                action = payload.action
                payload = payload.args
            self.clock.advance_to(time)
            self._fired += 1
            action(*payload)
            return True
        return False

    def run(self, max_events: int = 10_000_000) -> int:
        """Run until the event queue drains.  Returns events fired.

        ``max_events`` is a runaway guard; exceeding it raises
        :class:`SchedulerError` because a healthy serial-transaction run
        always drains.  It bounds the events dispatched; the skipped
        releases this loop alone allows count in the return value and in
        :attr:`fired`, not against the guard.
        """
        if self._running:
            raise SchedulerError("scheduler is not re-entrant")
        if self.tie_breaker is not None:
            return self._run_choosing(max_events)
        self._running = True
        self._batching = True
        self._skipping = True
        # The hot loop: locals for everything, no step() dispatch.
        # Handlers push into the same heap list and now-queue; _compact
        # mutates both in place, so the local bindings stay correct.
        heap = self._heap
        nowq = self._nowq
        heappop = heapq.heappop
        popleft = nowq.popleft
        clock = self.clock
        fired = 0
        try:
            while True:
                # Same-instant batch drain.  Every heap entry due at the
                # current instant was scheduled before the instant began
                # and therefore precedes (seq-wise) every now-queue entry,
                # so "heap entries due now first, then the now-queue FIFO"
                # is exactly (time, seq) order.  The clock never advances
                # while the now-queue is non-empty.
                if nowq:
                    if heap and heap[0][0] <= clock._now:
                        time, _seq, action, payload = heappop(heap)
                    else:
                        time, _seq, action, payload = popleft()
                elif heap:
                    time, _seq, action, payload = heappop(heap)
                else:
                    break
                if action is _CANCELLABLE:
                    if payload.cancelled:
                        self._cancelled -= 1
                        continue
                    action = payload.action
                    payload = payload.args
                # Heap order guarantees monotonic time; assign directly.
                clock._now = time
                fired += 1
                action(*payload)
                if fired > max_events:
                    raise SchedulerError(
                        f"exceeded {max_events} events; runaway simulation?"
                    )
            if self._skipped_until > clock._now:
                clock._now = self._skipped_until
        finally:
            self._batching = False
            self._skipping = False
            fired += self._skipped
            self._skipped = 0
            # An abnormal exit (runaway guard, handler exception) can
            # leave same-instant entries in the now-queue; flush them back
            # into the heap with their original keys so the schedule stays
            # whole for whoever resumes (step, run_until, a second run).
            while nowq:
                heapq.heappush(heap, popleft())
            self._fired += fired
            self._running = False
        return fired

    def _run_choosing(self, max_events: int) -> int:
        """The choice-aware run loop behind :attr:`tie_breaker`.

        Semantically identical to :meth:`run` except that whenever more
        than one live entry is due at the minimum time, the whole tied
        group (in ``(time, seq)`` order) is handed to the hook, which
        returns the index of the entry to fire first.  The remaining tied
        entries wait in the now-queue with their original keys, so the
        hook is consulted again — with one fewer candidate, plus whatever
        the fired entry posted for the same instant — before the next
        fire.  A hook that always returns 0 reproduces the default
        tie-break contract exactly.

        Same-instant posts batch into the now-queue as in :meth:`run`, and
        when it runs dry the heap's next instant moves into it, so the
        queue always holds the whole tied group in ``(time, seq)`` order
        and a lone due entry fires without building one.  While the hook
        runs the group sits in neither the queue nor the heap, which is
        what a fingerprint taken inside the hook sees.
        """
        self._running = True
        self._batching = True
        heap = self._heap
        nowq = self._nowq
        heappop = heapq.heappop
        popleft = nowq.popleft
        clock = self.clock
        choose = self.tie_breaker
        fired = 0
        try:
            while True:
                if not nowq:
                    if not heap:
                        break
                    # The next instant's entries, in (time, seq) order.
                    due = heap[0][0]
                    while heap and heap[0][0] == due:
                        nowq.append(heappop(heap))
                entry = popleft()
                if entry[2] is _CANCELLABLE and entry[3].cancelled:
                    self._cancelled -= 1
                    continue
                if nowq:
                    tied = [entry]
                    for other in nowq:
                        if other[2] is _CANCELLABLE and other[3].cancelled:
                            self._cancelled -= 1
                        else:
                            tied.append(other)
                    nowq.clear()
                    if len(tied) > 1:
                        entry = tied.pop(choose(tied))
                        nowq.extend(tied)
                time, _seq, action, payload = entry
                if action is _CANCELLABLE:
                    action = payload.action
                    payload = payload.args
                clock._now = time
                fired += 1
                action(*payload)
                if fired > max_events:
                    raise SchedulerError(
                        f"exceeded {max_events} events; runaway simulation?"
                    )
        finally:
            self._batching = False
            while nowq:
                heapq.heappush(heap, popleft())
            self._fired += fired
            self._running = False
        return fired

    def run_until(self, predicate: Callable[[], bool], max_events: int = 10_000_000) -> int:
        """Run until ``predicate()`` is true or the queue drains."""
        if self._running:
            raise SchedulerError("scheduler is not re-entrant")
        self._running = True
        heap = self._heap
        heappop = heapq.heappop
        clock = self.clock
        fired = 0
        try:
            while not predicate():
                live = False
                while heap:
                    time, _seq, action, payload = heappop(heap)
                    if action is _CANCELLABLE:
                        if payload.cancelled:
                            self._cancelled -= 1
                            continue
                        action = payload.action
                        payload = payload.args
                    clock._now = time
                    fired += 1
                    action(*payload)
                    live = True
                    break
                if not live:
                    break
                if fired > max_events:
                    raise SchedulerError(
                        f"exceeded {max_events} events; runaway simulation?"
                    )
        finally:
            self._fired += fired
            self._running = False
        return fired

    def __repr__(self) -> str:
        return (
            f"EventScheduler(now={self.clock._now:.3f}, pending={self.pending}, "
            f"fired={self._fired})"
        )
