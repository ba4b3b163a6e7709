"""Reliable delivery over a lossy network: retransmission and dedup.

The paper's protocol (and everything built on it here) assumes the
transport never loses a message.  :class:`ReliableDelivery` discharges
that assumption on top of a network that *does* lose messages (the chaos
layer's ``lossy-core`` preset): it turns at-most-once physical delivery
into exactly-once, in-order logical delivery per channel, the way a real
replicated system's transport (TCP, or an application-level session
layer) would.

Mechanics, all driven by the one deterministic event scheduler:

* **sequence numbers** — every tracked transmission is stamped with a
  per-``(src, dst)`` channel sequence number (``Message.seq``);
  retransmissions reuse the original number.
* **receiver-side dedup and ordering** — the receiving end delivers
  channel traffic strictly in sequence order: early arrivals are held in
  a reorder buffer, repeats of an already-delivered sequence number are
  counted and discarded.  Every arrival is acknowledged (``NET_ACK``),
  including repeats, so a lost ack cannot wedge the sender.
* **sender-side ack tracking** — each unacked transmission carries a
  retransmission timer with exponential backoff (``RTO``); after
  ``len(RTO)`` unacknowledged attempts the destination is reported
  *genuinely unreachable* through the network's ordinary failure-notice
  path, which is exactly the signal the protocol's Appendix-A failure
  branches (and the coordinator's type-2 fallback) already consume.

State here is transport state, not site state: it survives the crash of
the endpoints it serves (like a NIC's counters).  A sequence number that
can no longer arrive is *skipped* at the receiver so later traffic is
never wedged behind it, in each of the three ways that happens: a
bounced message (destination down or partitioned away, :meth:`cancel`),
a transmission given up on after ``len(RTO)`` attempts, and a sender that
dies with a transmission unacked — it retransmits nothing, but once
recovered it numbers on from where it stopped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.message import Message
from repro.net.network import _NET_ACK, Network
from repro.obs.events import EventKind
from repro.sim.events import Event


# The timeout armed after transmission ``attempt`` is ``RTO[attempt - 1]``:
# 60 ms doubling up to 480 ms.  After ``len(RTO)`` transmissions without
# an ack the destination is declared unreachable.
RTO = (60.0, 120.0, 240.0, 480.0, 480.0, 480.0, 480.0, 480.0)


@dataclass(slots=True)
class ReliableStats:
    """Transport-layer event counts for one run."""

    tracked: int = 0           # first transmissions given a sequence number
    retransmissions: int = 0   # timer-driven resends
    acks_sent: int = 0
    duplicates_suppressed: int = 0  # arrivals of an already-seen seq
    buffered_out_of_order: int = 0  # early arrivals parked for ordering
    gave_up: int = 0           # retry cap hit -> unreachable report


@dataclass(slots=True)
class _Pending:
    """One unacknowledged transmission at the sender."""

    msg: Message
    attempts: int = 1
    timer: Optional[Event] = None


class _ChannelReceiver:
    """Receiver-side ordering state for one (src, dst) channel."""

    __slots__ = ("next_seq", "buffer", "skipped")

    def __init__(self) -> None:
        self.next_seq = 0
        self.buffer: dict[int, Message] = {}
        self.skipped: set[int] = set()

    def advance(self) -> list[Message]:
        """Pop the in-order run now deliverable at the head of the window."""
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


class ReliableDelivery:
    """The retransmission sublayer attached to a :class:`Network`.

    The network consults it at three points: when releasing a tracked
    message (:meth:`track`), when a tracked message physically arrives
    (:meth:`on_arrival`), and when a tracked message becomes permanently
    undeliverable — destination down or partitioned (:meth:`cancel`).

    Usage — normally switched on through configuration rather than built
    by hand::

        config = SystemConfig(reliable_delivery=True, timeouts_enabled=True)
        cluster = Cluster(config)          # installs the sublayer
        ...
        cluster.network.reliable.stats     # retransmissions, dedup, give-ups

    or attached to a bare :class:`~repro.net.network.Network`::

        net.reliable = ReliableDelivery(net)

    The sublayer defaults OFF: with ``reliable_delivery=False`` (the stock
    configuration) the network behaves byte-identically to a build without
    this module, which is what keeps the paper-experiment seeds stable.
    """

    __slots__ = (
        "network", "stats", "_exempt", "_next_seq", "_pending", "_receivers",
    )

    def __init__(self, network: "Network") -> None:
        self.network = network
        # The network's exemption set itself (filled after the layer is
        # built), so tracks() answers without the network.
        self._exempt = network.partition_exempt
        self.stats = ReliableStats()
        self._next_seq: dict[tuple[int, int], int] = {}
        self._pending: dict[tuple[int, int, int], _Pending] = {}
        self._receivers: dict[tuple[int, int], _ChannelReceiver] = {}

    # -- eligibility -------------------------------------------------------

    def tracks(self, msg: Message) -> bool:
        """Whether ``msg`` travels under retransmission protection.

        Transport acks are never tracked (no ack-of-ack), and the managing
        site's control plane is exempt for the same reason it is exempt
        from partitions and fault interposition: it is the experimenter's
        harness, not the network under test.  ``Network._release_activation``
        inlines this test, reusing the exemption it has already computed.
        """
        if msg.mtype is _NET_ACK:
            return False
        exempt = self._exempt
        return msg.src not in exempt and msg.dst not in exempt

    # -- sender side -------------------------------------------------------

    def track(self, msg: Message) -> None:
        """Stamp a first transmission with its sequence number and arm its
        retransmission timer (retransmissions re-arm from the timer path)."""
        src = msg.src
        dst = msg.dst
        channel = (src, dst)
        seq = self._next_seq.get(channel, 0)
        self._next_seq[channel] = seq + 1
        msg.seq = seq
        self.stats.tracked += 1
        key = (src, dst, seq)
        pending = self._pending[key] = _Pending(msg)
        self._arm_timer(key, pending)

    def _arm_timer(self, key: tuple[int, int, int], pending: _Pending) -> None:
        # Pre-bound method + args tuple + static label: this is the heap's
        # highest-churn producer (most timers are cancelled by an ack), so
        # per-timer closures and f-string labels would dominate its cost.
        pending.timer = self.network.scheduler.schedule(
            RTO[pending.attempts - 1], self._on_timer, "rto", (key,)
        )

    def _on_timer(self, key: tuple[int, int, int]) -> None:
        pending = self._pending.get(key)
        if pending is None:
            return  # acked or cancelled; timer was stale
        msg = pending.msg
        sender = self.network._endpoints.get(msg.src)
        if sender is None or not sender.alive:
            # A dead sender retransmits nothing; its state is gone.  If the
            # transmission never arrived, its slot must not park the
            # channel once the sender recovers and numbers on.
            self._pending.pop(key, None)
            self._skip_at_receiver(msg)
            return
        obs = self.network.obs
        if pending.attempts >= len(RTO):
            # The destination has ignored every attempt: report it
            # genuinely unreachable through the ordinary failure-notice
            # path (the protocol's Appendix-A branches take it from here).
            self._pending.pop(key, None)
            self.stats.gave_up += 1
            if obs.enabled:
                obs.emit(
                    self.network.scheduler.now,
                    EventKind.MSG_GIVEUP,
                    site=msg.src,
                    txn=msg.txn_id,
                    parent=msg.trace_ref,
                    mtype=msg.mtype.value,
                    dst=msg.dst,
                    attempts=pending.attempts,
                )
            self._skip_at_receiver(msg)
            self.network._notify_sender_failure(msg)
            return
        pending.attempts += 1
        self.stats.retransmissions += 1
        clone = Message(
            src=msg.src,
            dst=msg.dst,
            mtype=msg.mtype,
            payload=dict(msg.payload),
            txn_id=msg.txn_id,
            session=msg.session,
            seq=msg.seq,
        )
        if obs.enabled:
            clone.trace_ref = obs.emit(
                self.network.scheduler.now,
                EventKind.MSG_RETRANSMIT,
                site=msg.src,
                txn=msg.txn_id,
                parent=msg.trace_ref,
                mtype=msg.mtype.value,
                dst=msg.dst,
                attempt=pending.attempts,
            )
        pending.msg = clone
        self._arm_timer(key, pending)
        self.network._transmit(clone)

    def on_ack(self, ack: Message) -> None:
        """A ``NET_ACK`` arrived at the original sender: stop retransmitting."""
        key = (ack.dst, ack.src, ack.payload["seq"])
        pending = self._pending.pop(key, None)
        if pending is not None and pending.timer is not None:
            pending.timer.cancel()

    def cancel(self, msg: Message) -> None:
        """``msg`` is permanently undeliverable (destination down or
        partitioned): drop its tracking and skip its slot at the receiver
        so later channel traffic is not wedged behind it."""
        if msg.seq < 0:
            return
        pending = self._pending.pop((msg.src, msg.dst, msg.seq), None)
        if pending is not None and pending.timer is not None:
            pending.timer.cancel()
        self._skip_at_receiver(msg)

    def close(self) -> None:
        """Detach from the closed network (``Network.close``): drop the
        pointer back and the unacked transmissions, whose timers are
        bound to this layer.  ``stats`` and :meth:`tracks` still answer."""
        self.network = None
        self._pending.clear()

    def _skip_at_receiver(self, msg: Message) -> None:
        channel = (msg.src, msg.dst)
        receiver = self._receivers.get(channel)
        if receiver is None:
            receiver = self._receivers[channel] = _ChannelReceiver()
        if msg.seq >= receiver.next_seq and msg.seq not in receiver.buffer:
            receiver.skipped.add(msg.seq)
            if receiver.next_seq in receiver.skipped:
                # Skipping the head of the window may unblock buffered
                # successors (e.g. traffic sent right after the destination
                # recovered, parked behind a message that bounced while it
                # was down): deliver them now.
                for ready in receiver.advance():
                    self.network._deliver(ready, True)

    # -- receiver side -----------------------------------------------------

    def on_arrival(self, msg: Message) -> tuple[list[Message], str]:
        """A tracked message physically reached an alive destination.

        Returns ``(deliverable, status)``: the messages now deliverable to
        the endpoint in channel order (possibly empty, possibly several if
        ``msg`` filled a gap), and what happened to the arriving message
        itself — ``"ready"``, ``"held"`` (parked for ordering), or
        ``"dup"`` (already seen).  Every arrival is acknowledged, repeats
        included, so a lost ack cannot wedge the sender.
        """
        channel = (msg.src, msg.dst)
        receiver = self._receivers.get(channel)
        if receiver is None:
            receiver = self._receivers[channel] = _ChannelReceiver()
        self._send_ack(msg)
        seq = msg.seq
        next_seq = receiver.next_seq
        buffer = receiver.buffer
        if seq == next_seq and not buffer and not receiver.skipped:
            # In order with nothing parked: exactly what advance() returns.
            receiver.next_seq = seq + 1
            return [msg], "ready"
        if seq < next_seq or seq in buffer or seq in receiver.skipped:
            self.stats.duplicates_suppressed += 1
            return [], "dup"
        buffer[seq] = msg
        if seq > next_seq:
            self.stats.buffered_out_of_order += 1
            return [], "held"
        return receiver.advance(), "ready"

    def _send_ack(self, msg: Message) -> None:
        self.stats.acks_sent += 1
        # Positional: src, dst, mtype, payload, txn_id, session, send_time,
        # seq, and the trace_ref of the send it acknowledges (its cause).
        ack = Message(
            msg.dst, msg.src, _NET_ACK, {"seq": msg.seq}, msg.txn_id, -1, -1.0, -1,
            msg.trace_ref,
        )
        self.network._transmit(ack)

    # -- introspection -----------------------------------------------------

    @property
    def in_flight(self) -> int:
        """Unacknowledged tracked transmissions."""
        return len(self._pending)

    def __repr__(self) -> str:
        return (
            f"ReliableDelivery(in_flight={self.in_flight}, "
            f"retransmissions={self.stats.retransmissions}, "
            f"dedup={self.stats.duplicates_suppressed})"
        )
