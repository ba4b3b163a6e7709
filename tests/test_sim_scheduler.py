"""EventScheduler: ordering, cancellation, run modes."""

import pytest

from repro.errors import SchedulerError
from repro.sim.scheduler import EventScheduler


def test_fires_in_time_order():
    sched = EventScheduler()
    fired = []
    sched.schedule(5.0, lambda: fired.append("b"))
    sched.schedule(1.0, lambda: fired.append("a"))
    sched.schedule(9.0, lambda: fired.append("c"))
    sched.run()
    assert fired == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    sched = EventScheduler()
    fired = []
    for name in "abcde":
        sched.schedule(2.0, lambda n=name: fired.append(n))
    sched.run()
    assert fired == list("abcde")


def test_clock_advances_to_event_time():
    sched = EventScheduler()
    seen = []
    sched.schedule(4.0, lambda: seen.append(sched.now))
    sched.run()
    assert seen == [4.0]


def test_schedule_during_run():
    sched = EventScheduler()
    fired = []

    def chain():
        fired.append(sched.now)
        if len(fired) < 3:
            sched.schedule(1.0, chain)

    sched.schedule(1.0, chain)
    sched.run()
    assert fired == [1.0, 2.0, 3.0]


def test_rejects_negative_delay():
    sched = EventScheduler()
    with pytest.raises(SchedulerError):
        sched.schedule(-0.1, lambda: None)


def test_schedule_at_rejects_past():
    sched = EventScheduler()
    sched.schedule(5.0, lambda: None)
    sched.run()
    with pytest.raises(SchedulerError):
        sched.schedule_at(4.0, lambda: None)


def test_cancelled_event_does_not_fire():
    sched = EventScheduler()
    fired = []
    event = sched.schedule(1.0, lambda: fired.append("x"))
    event.cancel()
    sched.run()
    assert fired == []


def test_pending_excludes_cancelled():
    sched = EventScheduler()
    events = [sched.schedule(float(i + 1), lambda: None) for i in range(5)]
    events[1].cancel()
    events[3].cancel()
    assert sched.pending == 3


def test_compaction_under_timer_churn():
    # Retransmission-style churn: a pile of timers, nearly all cancelled
    # (acked) before they fire.  The heap must compact, the live count must
    # stay exact, and survivors must still fire in order.
    sched = EventScheduler()
    fired = []
    events = [
        sched.schedule(100.0 + i, lambda i=i: fired.append(i))
        for i in range(400)
    ]
    for i, event in enumerate(events):
        if i % 20 != 0:
            event.cancel()
    live = [i for i in range(400) if i % 20 == 0]
    assert len(sched._heap) < len(events)  # compacted: nothing has run yet
    assert sched.pending == len(live)
    sched.run()
    assert fired == live
    assert sched.pending == 0


def test_compaction_during_run_keeps_heap_valid():
    # Cancel-and-rearm while the run loop holds its local heap binding:
    # compaction happens mid-run and must not strand or reorder entries.
    sched = EventScheduler()
    fired = []
    armed = []
    heap_sizes = []

    def tick(n):
        heap_sizes.append(len(sched._heap))
        if armed:
            armed.pop().cancel()
        if n < 300:
            fired.append(n)
            armed.append(
                sched.schedule(1000.0, lambda: fired.append("timeout"))
            )
            sched.schedule(1.0, tick, args=(n + 1,))

    sched.schedule(1.0, tick, args=(0,))
    sched.run()
    assert fired == list(range(300))
    # Uncompacted, the heap would hold every cancelled timeout by the end.
    assert max(heap_sizes) < 300
    assert sched.pending == 0


def test_tie_break_contract():
    # The public guarantee (see the scheduler module docstring): events
    # scheduled for the same simulated time fire in POSTING order, across
    # every scheduling entry point (post/post_at/schedule/schedule_at),
    # and the order survives cancellations and heap compaction because
    # surviving entries keep their (time, seq) keys.  repro.check's
    # choice points enumerate alternatives to exactly this order, so it
    # must hold bit-for-bit.
    sched = EventScheduler()
    fired = []

    # Interleave all four scheduling paths at one instant, twice over.
    sched.post(5.0, lambda: fired.append("post-0"))
    sched.schedule(5.0, lambda: fired.append("sched-1"))
    sched.post_at(5.0, lambda: fired.append("post_at-2"))
    sched.schedule_at(5.0, lambda: fired.append("sched_at-3"))
    doomed = sched.schedule(5.0, lambda: fired.append("cancelled"))
    sched.post(5.0, lambda: fired.append("post-4"))
    doomed.cancel()
    sched.schedule(5.0, lambda: fired.append("sched-5"))

    # A later instant posted earlier must still fire later...
    sched.post(7.0, lambda: fired.append("late"))
    # ...and churn enough cancelled timers to force a compaction while
    # the tied group is still queued.
    queued = len(sched._heap)
    churn = [sched.schedule(6.0, lambda: fired.append("churn")) for _ in range(200)]
    for event in churn:
        event.cancel()
    assert len(sched._heap) < queued + len(churn)  # compacted

    sched.run()
    assert fired == [
        "post-0",
        "sched-1",
        "post_at-2",
        "sched_at-3",
        "post-4",
        "sched-5",
        "late",
    ]


def test_tie_breaker_hook_sees_tied_groups():
    # With a tie_breaker installed, run() hands every same-time group of
    # live entries to the hook in (time, seq) order and fires the chosen
    # entry; the rest are re-offered (arity n, then n-1, ...).
    sched = EventScheduler()
    fired = []
    groups = []
    for name in "abc":
        sched.schedule(2.0, lambda n=name: fired.append(n))
    sched.schedule(4.0, lambda: fired.append("solo"))

    def last_first(tied):
        groups.append(len(tied))
        return len(tied) - 1

    sched.tie_breaker = last_first
    sched.run()
    # Hook consulted for the 3-group then the remaining 2-group; the solo
    # entry never reaches the hook.
    assert groups == [3, 2]
    assert fired == ["c", "b", "a", "solo"]


def test_tie_breaker_always_default_matches_plain_run():
    # A hook that always returns 0 must reproduce the tie-break contract
    # exactly — the identity repro.check's empty decision vector relies on.
    def build(hooked):
        sched = EventScheduler()
        fired = []
        for i in range(6):
            sched.post(3.0, lambda i=i: fired.append(i))
        sched.schedule(3.0, lambda: fired.append("ev"))
        if hooked:
            sched.tie_breaker = lambda tied: 0
        count = sched.run()
        return fired, count

    plain, plain_count = build(hooked=False)
    hooked, hooked_count = build(hooked=True)
    assert hooked == plain
    assert hooked_count == plain_count


def test_tie_breaker_skips_cancelled_entries():
    sched = EventScheduler()
    fired = []
    sched.schedule(1.0, lambda: fired.append("a"))
    doomed = sched.schedule(1.0, lambda: fired.append("doomed"))
    sched.schedule(1.0, lambda: fired.append("b"))
    doomed.cancel()
    seen = []
    sched.tie_breaker = lambda tied: seen.append(len(tied)) or 0
    sched.run()
    assert fired == ["a", "b"]
    assert seen == [2]  # the cancelled entry was never offered


def test_step_returns_false_when_empty():
    assert EventScheduler().step() is False


def test_run_counts_fired_events():
    sched = EventScheduler()
    for _ in range(4):
        sched.schedule(1.0, lambda: None)
    assert sched.run() == 4
    assert sched.fired == 4


def test_run_until_predicate():
    sched = EventScheduler()
    fired = []
    for i in range(10):
        sched.schedule(float(i + 1), lambda i=i: fired.append(i))
    sched.run_until(lambda: len(fired) >= 3)
    assert len(fired) == 3
    assert sched.pending == 7


def test_runaway_guard():
    sched = EventScheduler()

    def forever():
        sched.schedule(1.0, forever)

    sched.schedule(1.0, forever)
    with pytest.raises(SchedulerError):
        sched.run(max_events=100)


def test_not_reentrant():
    sched = EventScheduler()
    errors = []

    def reenter():
        try:
            sched.run()
        except SchedulerError as exc:
            errors.append(exc)

    sched.schedule(1.0, reenter)
    sched.run()
    assert len(errors) == 1
