"""The network: routing, delivery, failure notices, CPU accounting.

Responsibilities:

* route messages between registered endpoints with FIFO order per channel;
* charge each activation's cost (receive cost + handler charges + per-message
  send cost) on the shared :class:`~repro.sim.cpu.CpuResource`, releasing
  outgoing messages when the work completes;
* drop messages to down or partitioned-away sites and notify the sender
  after a failure-detection delay (the paper's reliable transport plus the
  "transaction ... knows that a particular site k is down" machinery).

What the network carried is counted in ``messages_sent`` /
``messages_delivered`` / ``messages_undeliverable``; the per-message
account is the ``msg.*`` events of :mod:`repro.obs`, when enabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush, heapreplace
from typing import Callable, Optional, Protocol, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.reliable import ReliableDelivery

from repro.errors import NetworkError, SimulationError, UnknownSiteError
from repro.net.endpoint import Endpoint, HandlerContext
from repro.net.message import Message, MessageType
from repro.net.partition import PartitionManager
from repro.obs.events import EventKind
from repro.obs.sink import TraceSink
from repro.sim.cpu import CpuResource
from repro.sim.scheduler import EventScheduler

# Messages that must reach a site even while it is marked down.  A down
# site ignores all traffic until the managing site tells it to recover
# (paper §1.2: "A failed site would remain inactive until recovery was
# initiated from the managing site").
_DELIVER_WHEN_DOWN = frozenset({MessageType.MGR_RECOVER})

# Bound once: reading a member off an Enum class runs Python-level code.
_NET_ACK = MessageType.NET_ACK


@dataclass(slots=True)
class MessageFate:
    """An interposer's verdict on one in-flight message.

    ``drop`` severs the link for this message exactly as a partition would:
    the message is undeliverable and the sender gets a failure notice —
    unless ``silent`` is also set, in which case the message simply
    vanishes (true message loss: nobody is told, and only the
    retransmission sublayer can recover it).  ``delay`` adds latency on
    top of the latency model (FIFO per channel is preserved).
    ``duplicate`` delivers a second copy ``duplicate_gap`` ms after the
    first.  ``reorder`` lets the message deliver up to ``reorder_shift``
    ms *early*, before earlier traffic on its channel — deliberately
    violating the FIFO guarantee the protocol assumes.
    """

    drop: bool = False
    silent: bool = False
    delay: float = 0.0
    duplicate: bool = False
    duplicate_gap: float = 0.0
    reorder: bool = False
    reorder_shift: float = 0.0


class MessageInterposer(Protocol):
    """Decides the fate of each transmitted message (fault injection)."""

    def intercept(self, msg: Message) -> Optional[MessageFate]:
        """Return a fate for ``msg``, or None for normal delivery."""
        ...  # pragma: no cover - protocol definition


class Network:
    """Reliable FIFO message fabric over the event scheduler."""

    def __init__(
        self,
        scheduler: EventScheduler,
        cpu: CpuResource,
        wire_latency_ms: float = 0.0,
        msg_send_cost: float = 4.5,
        msg_recv_cost: float = 4.5,
        failure_detect_delay: float = 0.0,
    ) -> None:
        self.scheduler = scheduler
        self.cpu = cpu
        if wire_latency_ms < 0:
            raise NetworkError(f"latency must be non-negative: {wire_latency_ms}")
        if msg_send_cost < 0 or msg_recv_cost < 0:
            raise NetworkError("message costs must be non-negative")
        # In mini-RAID all sites lived on one machine, so the 9 ms per
        # communication was interprocess *processing* cost and is charged
        # as CPU; wire latency is for the "complete RAID" configuration
        # (separate machines), where messages spend real time in flight
        # while CPUs stay free.
        self.wire_latency_ms = float(wire_latency_ms)
        self.msg_send_cost = msg_send_cost
        self.msg_recv_cost = msg_recv_cost
        self.failure_detect_delay = failure_detect_delay
        self.partitions = PartitionManager()
        # Addresses exempt from partitions (the managing site: it is the
        # experimenter's control plane, not part of the network under test).
        # Fault interposition honours the same exemption.
        self.partition_exempt: set[int] = set()
        # Optional fault-injection hook consulted for every non-exempt
        # transmission (see repro.chaos.interpose).
        self.interposer: Optional[MessageInterposer] = None
        # Optional retransmission sublayer (repro.net.reliable): sequence
        # numbers, receiver-side dedup/ordering, sender-side ack tracking.
        # None by default — the stock network is the paper's reliable FIFO
        # transport and behaves byte-identically with the layer absent.
        self.reliable: Optional["ReliableDelivery"] = None
        # Observers invoked for every successfully delivered message, in
        # delivery order (online invariant auditing).
        self.delivery_probes: list[Callable[[Message], None]] = []
        # Structured tracing (repro.obs).  Disabled by default: every emit
        # site guards on ``obs.enabled``, and tracing never touches the
        # scheduler, CPU, or RNG, so enabling it cannot change a run.
        self.obs = TraceSink()
        # Optional per-endpoint memo for an observer (repro.check.fingerprint
        # keeps each site's signature text here).  An endpoint's entry is
        # dropped whenever one of its activations ends or its completions
        # run — the only times its state changes.  None: nothing recorded.
        self.endpoint_memo: Optional[dict[Endpoint, object]] = None
        self._endpoints: dict[int, Endpoint] = {}
        # (src, dst) -> latest delivery time on that channel; empty until
        # an interposer is first installed (see _release_activation).
        self._fifo_last: dict[tuple[int, int], float] = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_undeliverable = 0

    # -- registration ------------------------------------------------------

    def register(self, endpoint: Endpoint) -> None:
        """Attach ``endpoint``; its ``site_id`` becomes its address."""
        if endpoint.site_id in self._endpoints:
            raise NetworkError(f"site id {endpoint.site_id} already registered")
        self._endpoints[endpoint.site_id] = endpoint

    def replace_endpoint(self, endpoint: Endpoint) -> None:
        """Swap in a new endpoint at an existing address (e.g. the open-loop
        driver taking over the managing site's address)."""
        if endpoint.site_id not in self._endpoints:
            raise UnknownSiteError(
                f"no endpoint at site {endpoint.site_id} to replace"
            )
        self._endpoints[endpoint.site_id] = endpoint

    def endpoint(self, site_id: int) -> Endpoint:
        """The endpoint registered at ``site_id``."""
        try:
            return self._endpoints[site_id]
        except KeyError:
            raise UnknownSiteError(f"no endpoint registered for site {site_id}") from None

    # -- activations -------------------------------------------------------

    def spawn(
        self,
        endpoint: Endpoint,
        fn: Callable[[HandlerContext], None],
        delay: float = 0.0,
    ) -> None:
        """Run ``fn`` as a fresh activation of ``endpoint`` after ``delay``.

        Used to kick off activity that is not a response to a message (the
        managing site starting a scenario, batch-copier timers, ...).
        """
        self.scheduler.post(delay, self._run_activation, (endpoint, fn))

    def _run_activation(
        self,
        endpoint: Endpoint,
        fn: Callable[[HandlerContext], None],
        parent: int = -1,
    ) -> None:
        obs = self.obs
        if obs.enabled:
            obs.scope = parent
        ctx = HandlerContext(self, endpoint)
        fn(ctx)
        self._finish_activation(ctx)
        if obs.enabled:
            obs.scope = -1

    def _finish_activation(self, ctx: HandlerContext) -> None:
        """Run the activation's work on the CPU and queue its release.

        One of these runs per activation, so ``CpuResource.execute`` and
        ``EventScheduler.post_at`` are inlined: the same core choice, the
        same accounting, the same ``(time, seq)`` entry.

        Inside :meth:`EventScheduler.run` a release that would carry no
        message, timer or completion is not posted — it would change
        nothing but the clock — and the scheduler counts it as fired at
        its time instead; with no cost either, the zero-length CPU job is
        skipped too (it can move no later start).  Every other loop sees
        each release, since the explorer chooses among them.
        """
        # The context dies here, so its lists transfer to the release step
        # without copying.
        outbox = ctx.outbox
        duration = ctx.cost + len(outbox) * self.msg_send_cost
        if duration < 0:
            raise SimulationError(f"negative work duration: {duration}")
        # Causality: everything this activation queued — messages released
        # later, timers firing later — is caused by the activation's scope
        # event, which must be captured *now* (release runs after the CPU
        # work completes, under someone else's scope).
        scope = -1
        if self.obs.enabled:
            scope = self.obs.scope
            for msg in outbox:
                msg.trace_ref = scope
        if self.endpoint_memo is not None:
            self.endpoint_memo.pop(ctx.endpoint, None)
        cpu = self.cpu
        free_at = cpu._free_at
        scheduler = self.scheduler
        now = scheduler.clock._now
        start = free_at[0]
        if now > start:
            start = now
        done = start + duration
        timers = ctx.timers
        completions = ctx.completions
        if not (outbox or timers or completions) and scheduler._skipping:
            if duration:
                heapreplace(free_at, done)
                cpu.busy_ms += duration
                cpu.jobs += 1
            scheduler._skipped += 1
            if done > scheduler._skipped_until:
                scheduler._skipped_until = done
            return
        heapreplace(free_at, done)
        cpu.busy_ms += duration
        cpu.jobs += 1
        seq = scheduler._seq
        scheduler._seq = seq + 1
        entry = (
            done,
            seq,
            self._release_activation,
            (ctx.endpoint, outbox, timers, completions, scope),
        )
        if done == now and scheduler._batching:
            scheduler._nowq.append(entry)
        else:
            heappush(scheduler._heap, entry)

    def _release_activation(
        self,
        endpoint: Optional[Endpoint],
        outbox: Sequence[Message],
        timers: Optional[list[tuple[float, Callable[[HandlerContext], None]]]],
        completions: Optional[list[Callable[[], None]]],
        scope: int,
    ) -> None:
        """The activation's CPU work is done: transmit its messages, arm
        its timers, run its completions.

        The transmit loop is the network's one send path (see
        :meth:`_transmit`).  Each message is routed through the optional
        layers that are installed — partitions, the reliable sublayer, the
        fault interposer, tracing — and then queued for :meth:`_deliver`
        at its FIFO-respecting arrival time (``post_at`` inlined).
        """
        scheduler = self.scheduler
        now = scheduler.clock._now
        if outbox:
            endpoints = self._endpoints
            obs = self.obs
            partitions = self.partitions
            exempt_sites = self.partition_exempt
            reliable = self.reliable
            interposer = self.interposer
            fifo_last = self._fifo_last
            deliver = self._deliver
            self.messages_sent += len(outbox)
            for msg in outbox:
                msg.send_time = now
                src = msg.src
                dst = msg.dst
                if dst not in endpoints:
                    raise UnknownSiteError(f"message to unregistered site {dst}: {msg}")
                if obs.enabled:
                    # The send event becomes the message's causal handle:
                    # the receive (or drop) it leads to parents itself here.
                    msg.trace_ref = obs.emit(
                        now,
                        EventKind.MSG_SEND,
                        site=src,
                        txn=msg.txn_id,
                        parent=msg.trace_ref,
                        mtype=msg.mtype.value,
                        dst=dst,
                    )
                # Partitions, the reliable sublayer and the interposer read
                # the exemption; with none of them there is nothing to test.
                exempt = True
                if reliable is not None or partitions._active or interposer is not None:
                    exempt = src in exempt_sites or dst in exempt_sites
                if (
                    partitions._active
                    and not exempt
                    and not partitions.connected(src, dst)
                ):
                    self.messages_undeliverable += 1
                    self._obs_drop(msg, "partitioned")
                    # A partition is a *detectable* severance: stop any
                    # retransmission and unblock the channel slot.
                    if reliable is not None:
                        reliable.cancel(msg)
                    self._notify_sender_failure(msg)
                    continue
                # ReliableDelivery.tracks(msg), inlined to reuse the
                # exemption: keep the two in step (test_reliable_fast_path::
                # test_tracked_equals_first_transmissions_tracks_accepts).
                if (
                    reliable is not None
                    and msg.seq < 0
                    and not exempt
                    and msg.mtype is not _NET_ACK
                ):
                    reliable.track(msg)
                latency = self.wire_latency_ms
                fate = None
                if interposer is not None and not exempt:
                    fate = interposer.intercept(msg)
                    if fate is not None:
                        if fate.drop:
                            self.messages_undeliverable += 1
                            if fate.silent:
                                # True message loss: nobody learns anything.
                                # Only the retransmission sublayer can
                                # recover the message — silent drops are
                                # only injected when it is installed.
                                self._obs_drop(msg, "chaos-drop-silent")
                                continue
                            self._obs_drop(msg, "chaos-drop")
                            if reliable is not None:
                                reliable.cancel(msg)
                            self._notify_sender_failure(msg)
                            continue
                        latency += fate.delay
                deliver_at = now + latency
                # Without fates every channel is FIFO by itself (constant
                # latency, send instants never decrease), so the map only
                # starts with the first interposer.  Entries it missed were
                # all due by ``now + latency`` and could never bind.
                if interposer is not None or fifo_last:
                    channel = (src, dst)
                    if fate is not None and fate.reorder:
                        # Injected reorder: allow delivery before earlier
                        # same-channel traffic, but never before the send
                        # instant.
                        deliver_at = max(now, deliver_at - fate.reorder_shift)
                        fifo_last[channel] = max(
                            fifo_last.get(channel, 0.0), deliver_at
                        )
                    else:
                        # Reliable FIFO per (src, dst): never deliver before
                        # an earlier message on the same channel.
                        last = fifo_last.get(channel, 0.0)
                        if last > deliver_at:
                            deliver_at = last
                        fifo_last[channel] = deliver_at
                seq = scheduler._seq
                scheduler._seq = seq + 1
                if deliver_at == now and scheduler._batching:
                    scheduler._nowq.append((deliver_at, seq, deliver, (msg,)))
                else:
                    heappush(scheduler._heap, (deliver_at, seq, deliver, (msg,)))
                if fate is not None and fate.duplicate:
                    self._transmit_duplicate(msg, now, deliver_at + fate.duplicate_gap)
        if timers:
            for delay, timer_fn in timers:
                scheduler.post(
                    delay, self._run_activation, (endpoint, timer_fn, scope)
                )
        if completions:
            for done_fn in completions:
                done_fn()
            if self.endpoint_memo is not None:
                self.endpoint_memo.pop(endpoint, None)

    # -- transmission ------------------------------------------------------

    def _transmit(self, msg: Message) -> None:
        """Send ``msg`` now, outside any activation (the reliable
        sublayer's retransmissions and acks)."""
        self._release_activation(None, (msg,), None, None, -1)

    def _obs_drop(self, msg: Message, reason: str) -> None:
        """Emit the msg.drop trace event for an undeliverable message."""
        if self.obs.enabled:
            self.obs.emit(
                self.scheduler.now,
                EventKind.MSG_DROP,
                site=msg.dst,
                txn=msg.txn_id,
                parent=msg.trace_ref,
                mtype=msg.mtype.value,
                reason=reason,
            )

    def _transmit_duplicate(
        self, msg: Message, release_time: float, deliver_at: float
    ) -> None:
        """Deliver a second copy of ``msg`` (chaos duplication fault)."""
        dup = Message(
            src=msg.src,
            dst=msg.dst,
            mtype=msg.mtype,
            payload=dict(msg.payload),
            txn_id=msg.txn_id,
            session=msg.session,
            seq=msg.seq,  # the receiver-side dedup window catches the copy
        )
        dup.send_time = release_time
        if self.obs.enabled:
            dup.trace_ref = self.obs.emit(
                release_time,
                EventKind.MSG_SEND,
                site=dup.src,
                txn=dup.txn_id,
                parent=msg.trace_ref,
                mtype=dup.mtype.value,
                dst=dup.dst,
                duplicate=True,
            )
        self.messages_sent += 1
        channel = (dup.src, dup.dst)
        deliver_at = max(deliver_at, self._fifo_last.get(channel, 0.0))
        self._fifo_last[channel] = deliver_at
        self.scheduler.post_at(deliver_at, self._deliver, (dup,))

    def _deliver(self, msg: Message, released: bool = False) -> None:
        """Hand an arrived message to its endpoint as one activation.

        The scheduler fires this for every arrival.  The reliable sublayer
        calls it with ``released`` for a message its reorder buffer lets
        go: that one was acknowledged and ordered when it arrived, so only
        the destination's liveness is checked again.
        """
        endpoint = self._endpoints[msg.dst]
        mtype = msg.mtype
        reliable = self.reliable
        if not endpoint.alive and mtype not in _DELIVER_WHEN_DOWN:
            # A down destination (or one that died while the message sat
            # in the reorder buffer).  An ack to a dead sender is moot.
            self.messages_undeliverable += 1
            self._obs_drop(msg, "site-down")
            if mtype is _NET_ACK:
                return
            if reliable is not None and not released:
                reliable.cancel(msg)
            self._notify_sender_failure(msg)
            return
        if mtype is _NET_ACK:
            # Transport-internal: consumed by the reliable layer, never
            # surfaced to the endpoint.
            if reliable is None:
                self.messages_undeliverable += 1
                self._obs_drop(msg, "site-down")
                return
            self.messages_delivered += 1
            reliable.on_ack(msg)
            return
        if reliable is not None and msg.seq >= 0 and not released:
            deliverable, status = reliable.on_arrival(msg)
            if status == "dup":
                self.messages_undeliverable += 1
                if self.obs.enabled:
                    self.obs.emit(
                        self.scheduler.now,
                        EventKind.MSG_DUP,
                        site=msg.dst,
                        txn=msg.txn_id,
                        parent=msg.trace_ref,
                        mtype=mtype.value,
                        seq=msg.seq,
                    )
            # A lone deliverable is ``msg`` itself, arriving in order (the
            # head slot is never a skipped one: _skip_at_receiver advances
            # past it at once).  It is handed over below without
            # re-entering; liveness was checked above, and on_arrival only
            # queues an ack.
            if len(deliverable) != 1 or deliverable[0] is not msg:
                for ready in deliverable:
                    self._deliver(ready, True)
                return
        self.messages_delivered += 1
        now = self.scheduler.clock._now
        obs = self.obs
        if obs.enabled:
            # The receive event scopes the delivery probes and the whole
            # handler activation: every event emitted (and message queued)
            # inside them parents here.
            obs.scope = obs.emit(
                now,
                EventKind.MSG_RECV,
                site=msg.dst,
                txn=msg.txn_id,
                parent=msg.trace_ref,
                mtype=mtype.value,
                src=msg.src,
            )
        if self.delivery_probes:
            for probe in self.delivery_probes:
                probe(msg)
        ctx = HandlerContext(self, endpoint, self.msg_recv_cost, now)
        endpoint.handle(ctx, msg)
        self._finish_activation(ctx)
        if obs.enabled:
            obs.scope = -1

    def _notify_sender_failure(self, msg: Message) -> None:
        if msg.mtype is _NET_ACK:
            return
        sender = self._endpoints.get(msg.src)
        if sender is None or not sender.alive:
            return
        self.scheduler.post(
            self.failure_detect_delay, self._run_failure_notice, (sender, msg)
        )

    def _run_failure_notice(self, sender: Endpoint, msg: Message) -> None:
        """Activation delivering a failure notice to ``msg``'s sender."""
        ctx = HandlerContext(self, sender)
        sender.on_delivery_failed(ctx, msg)
        self._finish_activation(ctx)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Drop the references that close a cycle through this network:
        the endpoint table, the delivery probes, the endpoint memo and the
        reliable sublayer's pointer back.  The counters, ``reliable`` and
        ``interposer`` stay readable; nothing may be sent afterwards."""
        self._endpoints.clear()
        self.delivery_probes.clear()
        self.endpoint_memo = None
        if self.reliable is not None:
            self.reliable.close()

    def __repr__(self) -> str:
        return (
            f"Network(sites={len(self._endpoints)}, sent={self.messages_sent}, "
            f"delivered={self.messages_delivered}, "
            f"undeliverable={self.messages_undeliverable})"
        )
