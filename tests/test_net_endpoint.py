"""HandlerContext and Endpoint basics."""

import pytest

from repro.net.endpoint import Endpoint, HandlerContext
from repro.net.message import MessageType
from repro.net.network import Network
from repro.sim.cpu import CpuResource
from repro.sim.scheduler import EventScheduler


class Nop(Endpoint):
    def handle(self, ctx, msg):
        pass


@pytest.fixture
def ctx():
    sched = EventScheduler()
    net = Network(
        scheduler=sched,
        cpu=CpuResource(sched),
        wire_latency_ms=0.0,
    )
    endpoint = Nop(0)
    net.register(endpoint)
    return HandlerContext(net, endpoint)


def test_charge_accumulates(ctx):
    ctx.charge(2.0)
    ctx.charge(3.5)
    assert ctx.cost == 5.5


def test_charge_rejects_negative(ctx):
    with pytest.raises(ValueError):
        ctx.charge(-1.0)


def test_after_rejects_negative(ctx):
    with pytest.raises(ValueError):
        ctx.after(-1.0, lambda c: None)


def test_send_builds_message(ctx):
    msg = ctx.send(1, MessageType.COMMIT, {"k": 1}, txn_id=7, session=2)
    assert msg.src == 0 and msg.dst == 1
    assert msg.txn_id == 7 and msg.session == 2
    assert ctx.outbox == [msg]


def test_send_default_payload_is_fresh(ctx):
    a = ctx.send(1, MessageType.COMMIT)
    b = ctx.send(1, MessageType.COMMIT)
    a.payload["x"] = 1
    assert b.payload == {}


def test_endpoint_repr_shows_state():
    endpoint = Nop(3)
    assert "up" in repr(endpoint)
    endpoint.alive = False
    assert "down" in repr(endpoint)


def test_now_reflects_scheduler(ctx):
    assert ctx.now == 0.0
