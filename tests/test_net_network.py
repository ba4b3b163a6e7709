"""Network delivery semantics: activations, FIFO, down sites, partitions."""

import gc
from collections import deque

import pytest

from repro.errors import NetworkError, UnknownSiteError
from repro.net.endpoint import Endpoint, HandlerContext
from repro.net.message import Message, MessageType
from repro.net.network import Network
from repro.obs.events import EventKind
from repro.sim.cpu import CpuResource
from repro.sim.scheduler import EventScheduler
from repro.system.config import SystemConfig

from conftest import make_scenario, messages, run_cluster


class Recorder(Endpoint):
    """Test endpoint: records deliveries and failure notices."""

    def __init__(self, site_id: int) -> None:
        super().__init__(site_id)
        self.received: list[tuple[float, Message]] = []
        self.failures: list[Message] = []
        self.handler_cost = 0.0

    def handle(self, ctx: HandlerContext, msg: Message) -> None:
        self.received.append((ctx.now, msg))
        if self.handler_cost:
            ctx.charge(self.handler_cost)

    def on_delivery_failed(self, ctx: HandlerContext, msg: Message) -> None:
        self.failures.append(msg)


def build_net(cores=1, latency=0.0):
    sched = EventScheduler()
    cpu = CpuResource(sched, cores=cores)
    net = Network(scheduler=sched, cpu=cpu, wire_latency_ms=latency)
    a, b = Recorder(0), Recorder(1)
    net.register(a)
    net.register(b)
    return sched, net, a, b


def send_from(net, endpoint, dst, mtype=MessageType.COMMIT, payload=None, txn=1):
    net.spawn(endpoint, lambda ctx: ctx.send(dst, mtype, payload or {}, txn_id=txn))


def test_basic_delivery():
    sched, net, a, b = build_net()
    send_from(net, a, 1)
    sched.run()
    assert len(b.received) == 1
    assert b.received[0][1].src == 0


def test_send_cost_delays_release():
    sched, net, a, b = build_net()
    send_from(net, a, 1)
    sched.run()
    # Sender activation costs 4.5 (one send); delivery is immediate
    # (zero latency); the message arrives at t=4.5.
    deliver_time, _msg = b.received[0]
    assert deliver_time == pytest.approx(4.5)


def test_one_communication_costs_nine_ms_of_cpu():
    sched, net, a, b = build_net()
    send_from(net, a, 1)
    sched.run()
    assert net.cpu.busy_ms == pytest.approx(9.0)  # 4.5 send + 4.5 recv


def test_fifo_per_channel():
    sched, net, a, b = build_net()

    def burst(ctx):
        for i in range(5):
            ctx.send(1, MessageType.COMMIT, {"i": i}, txn_id=i)

    net.spawn(a, burst)
    sched.run()
    order = [msg.payload["i"] for _t, msg in b.received]
    assert order == [0, 1, 2, 3, 4]


def test_down_site_drops_and_notifies_sender():
    sched, net, a, b = build_net()
    b.alive = False
    send_from(net, a, 1)
    sched.run()
    assert b.received == []
    assert len(a.failures) == 1
    assert net.messages_undeliverable == 1


def test_mgr_recover_reaches_down_site():
    sched, net, a, b = build_net()
    b.alive = False
    send_from(net, a, 1, mtype=MessageType.MGR_RECOVER)
    sched.run()
    assert len(b.received) == 1


def test_partition_blocks_and_notifies():
    sched, net, a, b = build_net()
    net.partitions.partition([[0], [1]])
    send_from(net, a, 1)
    sched.run()
    assert b.received == []
    assert len(a.failures) == 1


def test_heal_restores_delivery():
    sched, net, a, b = build_net()
    net.partitions.partition([[0], [1]])
    net.partitions.heal()
    send_from(net, a, 1)
    sched.run()
    assert len(b.received) == 1


def test_unknown_destination_raises():
    sched, net, a, b = build_net()
    send_from(net, a, 99)
    with pytest.raises(UnknownSiteError):
        sched.run()


def test_duplicate_registration_rejected():
    sched, net, a, b = build_net()
    with pytest.raises(NetworkError):
        net.register(Recorder(0))


def test_handler_charge_delays_outgoing():
    sched, net, a, b = build_net()
    b.handler_cost = 100.0

    class Replier(Recorder):
        def handle(self, ctx: HandlerContext, msg: Message) -> None:
            super().handle(ctx, msg)
            ctx.send(0, MessageType.COMMIT_ACK, {})

    replier = Replier(2)
    net.register(replier)
    net.spawn(a, lambda ctx: ctx.send(2, MessageType.COMMIT, {}))
    sched.run()
    # a's ack arrives after replier's recv(4.5) + send(4.5) charges.
    ack_time = a.received[0][0]
    assert ack_time == pytest.approx(4.5 + 9.0)


def test_timer_runs_as_new_activation():
    sched, net, a, b = build_net()
    fired = []

    def start(ctx):
        ctx.after(50.0, lambda ctx2: fired.append(ctx2.now))

    net.spawn(a, start)
    sched.run()
    assert fired == [50.0]


def test_on_done_runs_at_activation_end():
    sched, net, a, b = build_net()
    ends = []

    def start(ctx):
        ctx.charge(25.0)
        ctx.on_done(lambda: ends.append(sched.now))

    net.spawn(a, start)
    sched.run()
    assert ends == [25.0]


def test_wire_latency_applies():
    sched, net, a, b = build_net(latency=9.0)
    send_from(net, a, 1)
    sched.run()
    # Released after the 4.5-ms send, then 9 ms on the wire.
    assert b.received[0][0] == pytest.approx(13.5)


def test_message_counters():
    sched, net, a, b = build_net()
    net.obs.enabled = True
    send_from(net, a, 1)
    sched.run()
    assert net.messages_sent == 1
    assert net.messages_delivered == 1
    assert len(messages(net, kinds=(EventKind.MSG_RECV,))) == 1


def _retained_by(network) -> int:
    """Objects the network itself keeps alive: whatever is reachable from
    it through builtin containers and ``repro.net`` instances (its
    endpoints, scheduler and trace sink are other layers' to account for)."""
    seen = {id(network)}
    stack = [network]
    while stack:
        for ref in gc.get_referents(stack.pop()):
            kind = type(ref)
            if id(ref) not in seen and (
                kind in (list, dict, tuple, set, frozenset, deque)
                or kind.__module__.startswith("repro.net")
            ):
                seen.add(id(ref))
                stack.append(ref)
    return len(seen)


def test_network_keeps_nothing_per_message():
    """With ``obs`` off (the default) a delivered message leaves only the
    three counters behind: a run three times as long retains no more."""
    retained = {}
    for txns in (100, 300):
        config = SystemConfig(db_size=20, num_sites=4, max_txn_size=5, seed=3)
        cluster = run_cluster(config, make_scenario(config, txns))
        assert cluster.network.messages_sent > 10 * txns
        retained[txns] = _retained_by(cluster.network)
    assert retained[300] == retained[100]


def test_failure_notice_ignored_for_dead_sender():
    sched, net, a, b = build_net()
    b.alive = False

    def send_then_die(ctx):
        ctx.send(1, MessageType.COMMIT, {})
        ctx.on_done(lambda: setattr(a, "alive", False))

    net.spawn(a, send_then_die)
    sched.run()
    assert a.failures == []  # dead senders get no notices


def test_replace_endpoint_swaps_handler():
    sched, net, a, b = build_net()
    replacement = Recorder(1)
    net.replace_endpoint(replacement)
    send_from(net, a, 1)
    sched.run()
    assert len(replacement.received) == 1
    assert b.received == []


def test_replace_endpoint_requires_existing_address():
    sched, net, a, b = build_net()
    with pytest.raises(UnknownSiteError):
        net.replace_endpoint(Recorder(42))
