"""repro.net.reliable: retransmission, dedup, ordering, give-up.

The reliable-delivery sublayer must turn the chaos layer's lossy physical
network back into the exactly-once, in-order transport the protocol
assumes — without changing what the endpoints observe on a loss-free run.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chaos import FaultInjector, FaultPlan, build_chaos_scenario
from repro.errors import ConfigurationError
from repro.net.endpoint import Endpoint, HandlerContext
from repro.net.message import Message, MessageType
from repro.net.network import MessageFate, Network
from repro.net.reliable import ReliableDelivery, RetransmitPolicy
from repro.sim.cpu import CpuResource
from repro.sim.scheduler import EventScheduler
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig

from conftest import copies


class Recorder(Endpoint):
    """Test endpoint: records deliveries and failure notices."""

    def __init__(self, site_id: int) -> None:
        super().__init__(site_id)
        self.received: list[Message] = []
        self.failures: list[Message] = []

    def handle(self, ctx: HandlerContext, msg: Message) -> None:
        self.received.append(msg)

    def on_delivery_failed(self, ctx: HandlerContext, msg: Message) -> None:
        self.failures.append(msg)


def build_net(policy=None, latency=1.0):
    sched = EventScheduler()
    net = Network(
        scheduler=sched,
        cpu=CpuResource(sched, cores=1),
        wire_latency_ms=latency,
        msg_send_cost=0.5,
        msg_recv_cost=0.5,
    )
    net.reliable = ReliableDelivery(net, policy)
    a, b = Recorder(0), Recorder(1)
    net.register(a)
    net.register(b)
    return sched, net, a, b


class DropMatching:
    """Interposer that silently drops messages matching a predicate."""

    def __init__(self, pred, limit=None):
        self.pred = pred
        self.limit = limit
        self.dropped = 0

    def intercept(self, msg):
        if self.pred(msg) and (self.limit is None or self.dropped < self.limit):
            self.dropped += 1
            return MessageFate(drop=True, silent=True)
        return None


# -- policy -------------------------------------------------------------------


def test_policy_validates() -> None:
    with pytest.raises(ConfigurationError):
        RetransmitPolicy(rto_ms=0.0).validate()
    with pytest.raises(ConfigurationError):
        RetransmitPolicy(backoff=0.5).validate()
    with pytest.raises(ConfigurationError):
        RetransmitPolicy(rto_max_ms=1.0).validate()
    with pytest.raises(ConfigurationError):
        RetransmitPolicy(max_retries=0).validate()
    RetransmitPolicy().validate()


def test_policy_backoff_is_exponential_and_capped() -> None:
    policy = RetransmitPolicy(rto_ms=10.0, backoff=2.0, rto_max_ms=35.0)
    assert policy.rto_for_attempt(1) == 10.0
    assert policy.rto_for_attempt(2) == 20.0
    assert policy.rto_for_attempt(3) == 35.0  # capped, not 40
    assert policy.rto_for_attempt(9) == 35.0


# -- loss-free behavior -------------------------------------------------------


def test_lossless_channel_delivers_once_and_drains() -> None:
    sched, net, a, b = build_net()
    net.spawn(a, lambda ctx: ctx.send(1, MessageType.COMMIT, {}, txn_id=7))
    sched.run()
    assert [m.mtype for m in b.received] == [MessageType.COMMIT]
    assert net.reliable.in_flight == 0  # acked, timer cancelled
    assert net.reliable.stats.retransmissions == 0
    assert net.reliable.stats.acks_sent == 1


def test_sequence_numbers_are_per_channel() -> None:
    sched, net, a, b = build_net()
    net.spawn(a, lambda ctx: ctx.send(1, MessageType.COMMIT, {}))
    net.spawn(b, lambda ctx: ctx.send(0, MessageType.COMMIT, {}))
    net.spawn(a, lambda ctx: ctx.send(1, MessageType.ABORT, {}))
    sched.run()
    assert [m.seq for m in b.received] == [0, 1]  # channel 0->1
    assert [m.seq for m in a.received] == [0]     # channel 1->0


# -- the dedup property (satellite): every type, double delivery --------------


@pytest.mark.parametrize(
    "mtype", [m for m in MessageType if m is not MessageType.NET_ACK]
)
def test_double_delivery_is_invisible_for_every_type(mtype) -> None:
    """Delivering any single message twice leaves receiver state and
    delivery metrics identical to a single delivery: the second arrival is
    suppressed by the dedup window, never surfaced to the endpoint."""
    sched, net, a, b = build_net()
    net.spawn(a, lambda ctx: ctx.send(1, mtype, {"k": 1}, txn_id=3))
    sched.run()
    assert len(b.received) == 1
    first = b.received[0]
    snapshot = (first.mtype, first.seq, dict(first.payload))
    delivered_before = net.messages_delivered

    # A duplicate of the exact same transmission arrives again.
    clone = Message(
        src=first.src, dst=first.dst, mtype=first.mtype,
        payload=dict(first.payload), txn_id=first.txn_id,
        session=first.session, seq=first.seq,
    )
    net._transmit(clone)
    sched.run()

    assert len(b.received) == 1, f"{mtype}: duplicate reached the endpoint"
    assert (first.mtype, first.seq, dict(first.payload)) == snapshot
    assert net.reliable.stats.duplicates_suppressed == 1
    # The duplicate was re-acked (lost-ack tolerance) but never delivered:
    # the only new delivery is the transport ack itself.
    assert net.reliable.stats.acks_sent == 2
    assert net.messages_delivered == delivered_before + 1
    assert net.messages_undeliverable == 1  # the suppressed duplicate


# -- loss recovery ------------------------------------------------------------


def test_silent_drop_is_recovered_by_retransmission() -> None:
    policy = RetransmitPolicy(rto_ms=10.0, max_retries=4)
    sched, net, a, b = build_net(policy)
    net.interposer = DropMatching(
        lambda m: m.mtype is MessageType.COMMIT, limit=1
    )
    net.spawn(a, lambda ctx: ctx.send(1, MessageType.COMMIT, {}, txn_id=5))
    sched.run()
    assert [m.mtype for m in b.received] == [MessageType.COMMIT]
    assert net.reliable.stats.retransmissions == 1
    assert a.failures == []  # the loss was never surfaced as a failure


def test_retry_cap_reports_destination_unreachable() -> None:
    policy = RetransmitPolicy(rto_ms=5.0, max_retries=3)
    sched, net, a, b = build_net(policy)
    net.interposer = DropMatching(lambda m: m.mtype is MessageType.COMMIT)
    net.spawn(a, lambda ctx: ctx.send(1, MessageType.COMMIT, {}, txn_id=5))
    sched.run()
    assert b.received == []
    assert net.reliable.stats.retransmissions == 2  # attempts 2..max_retries
    assert net.reliable.stats.gave_up == 1
    assert [m.mtype for m in a.failures] == [MessageType.COMMIT]
    assert net.reliable.in_flight == 0


def test_out_of_order_arrivals_are_reordered() -> None:
    """An early arrival is parked until the gap fills, then both deliver
    in sequence order."""
    sched, net, a, b = build_net(RetransmitPolicy(rto_ms=30.0))
    net.interposer = DropMatching(
        lambda m: m.mtype is MessageType.COMMIT, limit=1
    )
    net.spawn(a, lambda ctx: ctx.send(1, MessageType.COMMIT, {}, txn_id=1))
    net.spawn(a, lambda ctx: ctx.send(1, MessageType.ABORT, {}, txn_id=2))
    sched.run()
    # ABORT (seq 1) arrived first but waited for the retransmitted COMMIT.
    assert [m.mtype for m in b.received] == [
        MessageType.COMMIT, MessageType.ABORT
    ]
    assert net.reliable.stats.buffered_out_of_order == 1


def test_cancel_at_window_head_releases_buffered_successors() -> None:
    """Regression: a bounced message (destination down) must not wedge the
    channel — skipping its slot releases traffic already buffered behind
    it."""
    sched, net, a, b = build_net()
    r = net.reliable
    m0 = Message(src=0, dst=1, mtype=MessageType.COMMIT)
    m1 = Message(src=0, dst=1, mtype=MessageType.RECOVERY_STATE)
    r.track(m0)
    r.track(m1)
    # m1 arrives early and is parked behind the gap at seq 0.
    deliverable, status = r.on_arrival(m1)
    assert status == "held" and deliverable == []
    # m0 bounces (its destination was down when it was sent).
    r.cancel(m0)
    sched.run()
    assert [m.mtype for m in b.received] == [MessageType.RECOVERY_STATE]


def _send(net, src, mtype, txn_id):
    net.spawn(src, lambda ctx: ctx.send(1, mtype, {}, txn_id=txn_id))


def test_sender_dying_with_an_undelivered_transmission_frees_its_slot() -> None:
    """Regression (lossy seed 455410715): seq k is lost, the sender dies
    before its retransmission timer and is later revived.  It numbers on
    from k+1, so the receiver must skip slot k — otherwise every later
    message on the channel is acked and parked, never delivered."""
    sched, net, a, b = build_net(RetransmitPolicy(rto_ms=10.0))
    net.interposer = DropMatching(lambda m: m.mtype is MessageType.COMMIT, limit=1)
    _send(net, a, MessageType.COMMIT, 1)  # seq 0, silently lost
    sched.run_until(lambda: net.interposer.dropped == 1)
    a.alive = False
    sched.run()  # the timer finds a dead sender: nothing is retransmitted
    assert net.reliable.stats.retransmissions == 0 and net.reliable.in_flight == 0
    a.alive = True
    _send(net, a, MessageType.ABORT, 2)  # seq 1
    sched.run()
    assert [(m.mtype, m.seq) for m in b.received] == [(MessageType.ABORT, 1)]
    assert net.reliable._receivers[(0, 1)].buffer == {}
    assert net.reliable.stats.buffered_out_of_order == 0


def test_sender_dying_with_only_the_ack_lost_delivers_nothing_twice() -> None:
    """The other way into the same branch: seq k arrived, its ack was lost,
    the sender died.  Skipping an already-delivered slot is a no-op."""
    sched, net, a, b = build_net(RetransmitPolicy(rto_ms=10.0))
    net.interposer = DropMatching(lambda m: m.mtype is MessageType.NET_ACK, limit=1)
    _send(net, a, MessageType.COMMIT, 1)
    sched.run_until(lambda: net.interposer.dropped == 1)
    assert [m.mtype for m in b.received] == [MessageType.COMMIT]
    a.alive = False
    sched.run()
    a.alive = True
    _send(net, a, MessageType.ABORT, 2)
    sched.run()
    assert [(m.mtype, m.seq) for m in b.received] == [
        (MessageType.COMMIT, 0), (MessageType.ABORT, 1)
    ]
    receiver = net.reliable._receivers[(0, 1)]
    assert receiver.buffer == {} and receiver.skipped == set() and receiver.next_seq == 2
    assert net.reliable.stats.duplicates_suppressed == 0


_ENDPOINT = st.integers(min_value=0, max_value=1)
_STEP = st.one_of(
    st.tuples(st.just("send"), _ENDPOINT, st.sampled_from(["", "data", "ack"])),
    st.tuples(st.just("crash"), _ENDPOINT, st.just("")),
    st.tuples(st.just("recover"), _ENDPOINT, st.just("")),
    st.tuples(st.just("run_ms"), st.sampled_from([1, 4, 15, 40]), st.just("")),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_STEP, max_size=25))
@example(  # the wedge of lossy seed 455410715, in five steps
    [("send", 0, "data"), ("crash", 0, ""), ("run_ms", 40, ""),
     ("recover", 0, ""), ("send", 0, "")]
)
@example(  # ... behind traffic that did arrive, and with the ack lost instead
    [("send", 1, "data"), ("send", 1, ""), ("run_ms", 4, ""), ("crash", 1, ""),
     ("run_ms", 40, ""), ("recover", 1, ""), ("send", 1, "ack"), ("send", 1, "")]
)
def test_no_channel_stays_parked_behind_a_slot_nobody_will_fill(steps):
    """Any interleaving of sends, silent losses, crashes and recoveries of
    two endpoints: once the scheduler drains, a receiver still buffering
    traffic must be waiting on something — a dead sender, or one that
    still has a transmission pending on that channel."""
    sched, net, a, b = build_net(RetransmitPolicy(rto_ms=10.0, max_retries=3))
    to_lose: set[tuple[bool, int]] = set()  # (is_ack, txn_id), first copy only

    def first_copy_of_a_lost_one(msg) -> bool:
        key = (msg.mtype is MessageType.NET_ACK, msg.txn_id)
        lost = key in to_lose
        to_lose.discard(key)
        return lost

    net.interposer = DropMatching(first_copy_of_a_lost_one)
    ends = (a, b)
    for txn, (op, arg, lose) in enumerate(steps):
        if op == "send" and ends[arg].alive:
            if lose:
                to_lose.add((lose == "ack", txn))
            net.spawn(
                ends[arg],
                lambda ctx, dst=1 - arg, txn=txn: ctx.send(
                    dst, MessageType.COMMIT, {}, txn_id=txn
                ),
            )
        elif op == "crash":
            ends[arg].alive = False
        elif op == "recover":
            ends[arg].alive = True
        elif op == "run_ms":
            until = sched.now + arg
            sched.run_until(lambda: sched.now >= until)
    sched.run()
    for (src, dst), receiver in net.reliable._receivers.items():
        if receiver.buffer:
            waiting_on = [k for k in net.reliable._pending if k[:2] == (src, dst)]
            assert not ends[src].alive or waiting_on, (src, dst, receiver.buffer)
    # Exactly-once, in order, whatever happened on the way.
    for end in ends:
        seqs = [m.seq for m in end.received]
        assert seqs == sorted(set(seqs))


def test_transport_acks_and_manager_traffic_are_untracked() -> None:
    sched, net, a, b = build_net()
    ack = Message(src=0, dst=1, mtype=MessageType.NET_ACK, payload={"seq": 0})
    assert not net.reliable.tracks(ack)
    net.partition_exempt.add(2)
    mgr = Message(src=2, dst=1, mtype=MessageType.MGR_SUBMIT_TXN)
    assert not net.reliable.tracks(mgr)
    assert net.reliable.tracks(Message(src=0, dst=1, mtype=MessageType.COMMIT))


# -- end-to-end: duplicating everything changes nothing -----------------------


def _run_lossy_cluster(duplicate_rate: float):
    plan = FaultPlan(
        lossy_core=True,
        drop_rate=0.0,
        duplicate_rate=duplicate_rate,
        delay_rate=0.0,
        reorder_rate=0.0,
    )
    config = SystemConfig(
        db_size=16,
        num_sites=4,
        seed=9,
        wire_latency_ms=2.0,
        reliable_delivery=True,
        timeouts_enabled=True,
    )
    cluster = Cluster(config)
    injector = FaultInjector(plan, cluster.rng.stream("chaos.faults"))
    cluster.network.interposer = injector
    scenario = build_chaos_scenario(
        config, plan, cluster.rng.stream("chaos.schedule"), txn_count=30
    )
    cluster.run(scenario)
    return cluster, injector


def test_duplicating_every_message_leaves_outcomes_identical() -> None:
    """The cluster-level dedup property: a run where EVERY message (2PC
    traffic, recovery state, acks, everything) is delivered twice ends in
    exactly the state of the run with no duplication at all."""
    base, _ = _run_lossy_cluster(duplicate_rate=0.0)
    noisy, injector = _run_lossy_cluster(duplicate_rate=1.0)
    assert injector.stats.duplicated > 100, "chaos duplicated almost nothing"
    dup_types = {k.split(":", 1)[1] for k in injector.stats.by_type}
    assert {"commit", "vote_req", "vote_ack", "net_ack"} <= dup_types
    assert noisy.network.reliable.stats.duplicates_suppressed > 0
    for site_a, site_b in zip(base.sites, noisy.sites):
        assert copies(site_a.db) == copies(site_b.db)
        assert site_a.faillocks.snapshot() == site_b.faillocks.snapshot()
    for counter in ("commits", "aborts"):
        assert base.metrics.counters.get(counter) == noisy.metrics.counters.get(
            counter
        )
    assert base.audit_consistency() == []
    assert noisy.audit_consistency() == []
