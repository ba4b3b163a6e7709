"""Control transactions (paper §1.1) at the site handlers.

Each type-1 and type-2 message is a plain dict built where it is sent and
read where it arrives; these tests run one message at a time through a
site's ``handle`` and read what it changed and what it queued to send.
"""

import pytest

from repro.core.sessions import NominalSessionVector, SiteState
from repro.net.endpoint import HandlerContext
from repro.net.message import MessageType
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig

from conftest import handle


@pytest.fixture
def cluster():
    return Cluster(SystemConfig(db_size=4, num_sites=3, max_txn_size=2, seed=1))


def crash_and_recover(cluster, site_id):
    """Fail ``site_id`` and start its type-1 transaction; returns the
    RECOVERY_ANNOUNCE messages it sends."""
    handle(cluster, site_id, MessageType.MGR_FAIL)
    for peer in cluster.sites:
        if peer.site_id != site_id:
            peer.nsv.mark_down(site_id)
    return handle(cluster, site_id, MessageType.MGR_RECOVER)


def test_vector_encode_decode_roundtrip():
    """The type-1 reply ships the vector as ``signature()`` rows, and
    ``install`` adopts every row but the installer's own."""
    sender = NominalSessionVector(owner=1, site_ids=[0, 1, 2])
    sender.mark_up(2, session=3)
    sender.mark_down(2)
    receiver = NominalSessionVector(owner=0, site_ids=[0, 1, 2])
    receiver.install(sender.signature())
    assert receiver.signature()[1:] == sender.signature()[1:] == (
        (1, 1, "up"),
        (2, 3, "down"),
    )
    assert receiver.state_of(2) is SiteState.DOWN


def test_recovery_announcement_roundtrip_and_apply(cluster):
    sent = crash_and_recover(cluster, 0)
    assert [(m.dst, m.mtype) for m in sent] == [
        (1, MessageType.RECOVERY_ANNOUNCE),
        (2, MessageType.RECOVERY_ANNOUNCE),
    ]
    assert sent[0].payload == {"site": 0, "session": 2, "respond": 1, "cold": False}
    assert sent[0].session == 2
    # A peer that is not the responder marks the site up and answers nothing.
    assert handle(cluster, 2, MessageType.RECOVERY_ANNOUNCE, sent[1].payload, src=0) == []
    assert cluster.site(2).nsv.session_of(0) == 2
    assert cluster.site(2).nsv.is_operational(0)
    assert cluster.site(2).faillocks.count_for(0) == 0


def test_recovery_announcement_of_a_cold_crash_faillocks_every_copy():
    cluster = Cluster(
        SystemConfig(db_size=4, num_sites=3, max_txn_size=2, seed=1, cold_recovery=True)
    )
    sent = crash_and_recover(cluster, 0)
    assert sent[1].payload["cold"] is True
    handle(cluster, 2, MessageType.RECOVERY_ANNOUNCE, sent[1].payload, src=0)
    assert cluster.site(2).faillocks.locked_items_for(0) == [0, 1, 2, 3]


def test_recovery_state_capture_and_install(cluster):
    responder, recovering = cluster.site(1), cluster.site(0)
    sent = crash_and_recover(cluster, 0)
    # The responder knows item 2 is stale at site 0, and that site 2 is down.
    responder.faillocks.set_lock(2, 0)
    responder.nsv.mark_down(2)
    [reply] = handle(cluster, 1, MessageType.RECOVERY_ANNOUNCE, sent[0].payload, src=0)
    assert (reply.dst, reply.mtype) == (0, MessageType.RECOVERY_STATE)
    assert reply.payload["responder"] == 1
    assert reply.payload["vector"] == responder.nsv.signature()
    assert reply.payload["faillocks"] == responder.faillocks.snapshot()
    assert reply.payload["faillocks"] is not responder.faillocks.snapshot()

    # The recovering site installs it.  A stale row for itself is ignored:
    # its own entry is kept, then marked up.
    payload = dict(reply.payload)
    payload["vector"] = ((0, 1, "down"),) + reply.payload["vector"][1:]
    assert recovering.nsv.state_of(0) is SiteState.RECOVERING
    handle(cluster, 0, MessageType.RECOVERY_STATE, payload, src=1)
    assert recovering.nsv.my_session == 2
    assert recovering.nsv.is_operational(0)
    assert recovering.nsv.state_of(2) is SiteState.DOWN
    assert recovering.faillocks.locked_items_for(0) == [2]
    assert recovering.recovery.in_recovery


def test_failure_announcement_apply_reports_changes(cluster):
    """A FAILURE_ANNOUNCE marks the failed sites down and fail-locks their
    copies of the corrective items; a repeat changes nothing."""
    site = cluster.site(0)
    payload = {"announcer": 1, "failed": [2], "stale_items": [3]}
    assert handle(cluster, 0, MessageType.FAILURE_ANNOUNCE, payload, src=1) == []
    assert site.nsv.up_sites() == (0, 1)
    assert site.faillocks.locked_items_for(2) == [3]
    before = (site.nsv.signature(), site.faillocks.snapshot())
    handle(cluster, 0, MessageType.FAILURE_ANNOUNCE, payload, src=1)
    assert (site.nsv.signature(), site.faillocks.snapshot()) == before


def test_failure_announcement_roundtrip(cluster):
    announcer = cluster.site(1)
    ctx = HandlerContext(cluster.network, announcer)
    announcer.announce_failure(ctx, [2], stale_items=[3, 1])
    [sent] = ctx.outbox  # site 2 is down now: only site 0 hears it
    assert (sent.dst, sent.mtype) == (0, MessageType.FAILURE_ANNOUNCE)
    assert sent.payload == {"announcer": 1, "failed": [2], "stale_items": [1, 3]}
    assert announcer.faillocks.locked_items_for(2) == [1, 3]
    handle(cluster, 0, MessageType.FAILURE_ANNOUNCE, sent.payload, src=1)
    assert cluster.site(0).nsv.state_of(2) is SiteState.DOWN
    assert cluster.site(0).faillocks.locked_items_for(2) == [1, 3]
