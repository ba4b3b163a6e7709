"""The reliable sublayer's fast paths against a transcribed reference.

``ReliableDelivery`` takes shortcuts on its hottest paths: an in-order
arrival on a channel with nothing parked skips the reorder buffer, a
channel's receiver is created only on a miss, and timers are armed from
a per-attempt timeout table.  ``ReferenceReliable``
keeps the straightforward versions (``on_arrival`` / ``advance`` /
``_skip_at_receiver`` / ``track`` / ``_arm_timer`` as they read before the
shortcuts), and seeded per-channel scripts drive both side by side:
in-order arrivals, duplicates, early arrivals, cancellations, give-ups
and dead senders.  Every ``(deliverable, status)``, every count, every
receiver's state and the ``(delay, label)`` of every armed timer must
agree.

The last test checks the network's inline eligibility test against
:meth:`ReliableDelivery.tracks` on a traced lossy chaos run.
"""

import dataclasses
import random

import pytest

from repro.chaos import runner
from repro.chaos.faults import FaultPlan
from repro.net.message import Message, MessageType
from repro.net.reliable import ReliableDelivery, RetransmitPolicy, _Pending
from repro.obs.events import EventKind
from repro.obs.sink import TraceSink
from repro.sim.scheduler import EventScheduler


class ReferenceReceiver:
    """Receiver-side ordering state for one (src, dst) channel."""

    __slots__ = ("next_seq", "buffer", "skipped")

    def __init__(self) -> None:
        self.next_seq = 0
        self.buffer: dict[int, Message] = {}
        self.skipped: set[int] = set()

    def advance(self) -> list[Message]:
        ready: list[Message] = []
        while True:
            if self.next_seq in self.skipped:
                self.skipped.discard(self.next_seq)
                self.next_seq += 1
                continue
            msg = self.buffer.pop(self.next_seq, None)
            if msg is None:
                return ready
            ready.append(msg)
            self.next_seq += 1


class ReferenceReliable(ReliableDelivery):
    """The sender and receiver paths without the fast paths."""

    __slots__ = ()

    def track(self, msg: Message) -> None:
        channel = (msg.src, msg.dst)
        msg.seq = self._next_seq.get(channel, 0)
        self._next_seq[channel] = msg.seq + 1
        self.stats.tracked += 1
        pending = _Pending(msg=msg)
        self._pending[(msg.src, msg.dst, msg.seq)] = pending
        self._arm_timer(None, pending)

    def _arm_timer(self, _key, pending: _Pending) -> None:
        # The timer path passes the key; the reference rebuilds it.
        msg = pending.msg
        key = (msg.src, msg.dst, msg.seq)
        delay = self.policy.rto_for_attempt(pending.attempts)
        pending.timer = self.network.scheduler.schedule(
            delay, self._on_timer, label="rto", args=(key,)
        )

    def _skip_at_receiver(self, msg: Message) -> None:
        receiver = self._receivers.setdefault((msg.src, msg.dst), ReferenceReceiver())
        if msg.seq >= receiver.next_seq and msg.seq not in receiver.buffer:
            receiver.skipped.add(msg.seq)
            if receiver.next_seq in receiver.skipped:
                for ready in receiver.advance():
                    self.network._deliver(ready, True)

    def on_arrival(self, msg: Message):
        receiver = self._receivers.setdefault((msg.src, msg.dst), ReferenceReceiver())
        self._send_ack(msg)
        if (
            msg.seq < receiver.next_seq
            or msg.seq in receiver.buffer
            or msg.seq in receiver.skipped
        ):
            self.stats.duplicates_suppressed += 1
            return [], "dup"
        if msg.seq > receiver.next_seq:
            receiver.buffer[msg.seq] = msg
            self.stats.buffered_out_of_order += 1
            return [], "held"
        receiver.buffer[msg.seq] = msg
        return receiver.advance(), "ready"


class RecordingScheduler(EventScheduler):
    """Records the ``(delay, label)`` of every cancellable event armed."""

    def __init__(self) -> None:
        super().__init__()
        self.armed: list[tuple[float, str]] = []

    def schedule(self, delay, action, label="", args=()):
        self.armed.append((delay, label))
        return super().schedule(delay, action, label, args)


class Sender:
    def __init__(self) -> None:
        self.alive = True


class StubNetwork:
    """What the sublayer touches of a network, with every call logged."""

    def __init__(self, sites: int) -> None:
        self.scheduler = RecordingScheduler()
        self.obs = TraceSink()
        self.partition_exempt: set[int] = set()
        self._endpoints = {site: Sender() for site in range(sites)}
        self.log: list[tuple] = []

    def _transmit(self, msg: Message) -> None:
        self.log.append(("transmit", _ident(msg), msg.mtype.value, msg.payload))

    def _deliver(self, msg: Message, released: bool = False) -> None:
        self.log.append(("released", _ident(msg), released))

    def _notify_sender_failure(self, msg: Message) -> None:
        self.log.append(("unreachable", _ident(msg)))


def _ident(msg: Message) -> tuple:
    return (msg.src, msg.dst, msg.seq, msg.txn_id)


def _receiver_state(layer: ReliableDelivery) -> dict:
    return {
        channel: (
            receiver.next_seq,
            sorted((seq, _ident(msg)) for seq, msg in receiver.buffer.items()),
            sorted(receiver.skipped),
        )
        for channel, receiver in layer._receivers.items()
    }


def run_script(layer_class, seed: int, steps: int = 300):
    """Drive one sublayer through a seeded script over three sites; return
    everything it did, step by step."""
    rng = random.Random(seed)
    network = StubNetwork(3)
    policy = RetransmitPolicy(rto_ms=7.0, backoff=1.5, rto_max_ms=20.0, max_retries=3)
    layer = layer_class(network, policy)
    sent: dict[tuple[int, int], list[Message]] = {}
    channels = [(0, 1), (1, 0), (0, 2), (2, 1)]
    trace: list = []
    for txn in range(steps):
        op = rng.choices(
            ["send", "arrive", "early", "dup", "cancel", "timer", "ack", "crash", "revive"],
            weights=[6, 8, 3, 3, 2, 9, 2, 1, 1],
        )[0]
        channel = rng.choice(channels)
        history = sent.setdefault(channel, [])
        receiver = layer._receivers.get(channel)
        next_seq = receiver.next_seq if receiver is not None else 0
        if op == "send" or not history:
            msg = Message(channel[0], channel[1], MessageType.COMMIT, {"n": txn}, txn)
            layer.track(msg)
            history.append(msg)
            trace.append(("send", _ident(msg)))
            continue
        if op in ("arrive", "early", "dup"):
            if op == "arrive":
                index = min(next_seq, len(history) - 1)
            elif op == "early":
                index = rng.randrange(min(next_seq, len(history) - 1), len(history))
            else:
                index = rng.randrange(0, len(history))
            original = history[index]
            # Arrivals are copies in flight: the original or a retransmission.
            copy = dataclasses.replace(original, payload=dict(original.payload))
            deliverable, status = layer.on_arrival(copy)
            trace.append((op, [_ident(m) for m in deliverable], status))
        elif op == "cancel":
            msg = rng.choice(history)
            layer.cancel(msg)
            trace.append(("cancel", _ident(msg)))
        elif op == "timer":
            # Fires the earliest live timer: a retransmission, a give-up,
            # or a dead sender's skip.
            stats = layer.stats
            before = (stats.retransmissions, stats.gave_up, len(layer._pending))
            network.scheduler.step()
            after = (stats.retransmissions, stats.gave_up, len(layer._pending))
            kind = {
                (1, 0, 0): "retransmit",
                (0, 1, -1): "give-up",
                (0, 0, -1): "dead sender",
            }.get(tuple(b - a for a, b in zip(before, after)), "no live timer")
            trace.append(("timer", kind))
        elif op == "ack":
            msg = rng.choice(history)
            ack = Message(msg.dst, msg.src, MessageType.NET_ACK, {"seq": msg.seq})
            layer.on_ack(ack)
            trace.append(("ack", _ident(msg)))
        else:
            network._endpoints[channel[0]].alive = op == "revive"
            trace.append((op, channel[0]))
        trace.append(_receiver_state(layer))
    return {
        "trace": trace,
        "log": network.log,
        "stats": dataclasses.astuple(layer.stats),
        "receivers": _receiver_state(layer),
        "pending": sorted(
            (key, pending.attempts) for key, pending in layer._pending.items()
        ),
        "armed": network.scheduler.armed,
        "live_events": network.scheduler.pending,
    }


@pytest.mark.parametrize("seed", range(12))
def test_fast_paths_match_the_reference(seed):
    fast = run_script(ReliableDelivery, seed)
    reference = run_script(ReferenceReliable, seed)
    assert fast == reference
    # The scripts reach every branch of the receiver and the timer.
    statuses = {
        entry[2]
        for entry in fast["trace"]
        if isinstance(entry, tuple) and entry[0] in ("arrive", "early", "dup")
    }
    assert statuses == {"ready", "held", "dup"}


def test_scripts_cover_every_skip_path():
    """Across the seeds the scripts retransmit, give up and skip for dead
    senders, and some skip releases parked traffic."""
    runs = [run_script(ReliableDelivery, seed) for seed in range(12)]
    timers = {
        entry[1]
        for run in runs
        for entry in run["trace"]
        if isinstance(entry, tuple) and entry[0] == "timer"
    }
    assert {"retransmit", "give-up", "dead sender"} <= timers
    assert any(entry[0] == "released" for run in runs for entry in run["log"])


def test_timeout_table_matches_the_policy():
    policy = RetransmitPolicy(rto_ms=10.0, backoff=3.0, rto_max_ms=100.0, max_retries=5)
    layer = ReliableDelivery(StubNetwork(2), policy)
    assert layer._rto == tuple(policy.rto_for_attempt(a) for a in range(1, 6))
    with pytest.raises(dataclasses.FrozenInstanceError):
        policy.rto_ms = 1.0


def test_tracked_equals_first_transmissions_tracks_accepts(monkeypatch):
    """On a traced lossy run, ``tracked`` counts exactly the first
    transmissions (``msg.send`` events that are neither a duplicate copy
    nor a retransmission) for which ``tracks()`` says yes."""
    built = []

    class RecordingCluster(runner.Cluster):
        def __init__(self, config):
            super().__init__(config)
            built.append(self)

    monkeypatch.setattr(runner, "Cluster", RecordingCluster)
    sink = TraceSink(enabled=True)
    result = runner.run_chaos_seed(455410715, txns=40, plan=FaultPlan.lossy(), trace=sink)
    assert sink.dropped_events == 0 and result.clean
    reliable = built[0].network.reliable
    retransmits = {e.seq for e in sink if e.kind is EventKind.MSG_RETRANSMIT}
    assert retransmits
    first_sends = [
        e
        for e in sink
        if e.kind is EventKind.MSG_SEND
        and not e.args.get("duplicate")
        and e.parent not in retransmits
    ]
    accepted = sum(
        reliable.tracks(
            Message(e.site, e.args["dst"], MessageType(e.args["mtype"]))
        )
        for e in first_sends
    )
    # Acks and the managing site's traffic are sent but never tracked.
    assert 0 < accepted < len(first_sends)
    assert reliable.stats.tracked == accepted
