"""Protocol robustness edges: stale/duplicate/unexpected messages."""

import pytest

from repro.errors import ProtocolError
from repro.net.endpoint import HandlerContext
from repro.net.message import Message, MessageType
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig

from conftest import messages


@pytest.fixture
def cluster():
    return Cluster(SystemConfig(db_size=4, num_sites=3, max_txn_size=2, seed=1))


def deliver(cluster, site, mtype, payload=None, txn_id=1, src=0):
    """Hand-deliver a message to a site's handler within an activation."""
    msg = Message(src=src, dst=site.site_id, mtype=mtype,
                  payload=payload or {}, txn_id=txn_id)
    cluster.network.spawn(site, lambda ctx: site.handle(ctx, msg))
    cluster.scheduler.run()


def test_unexpected_message_type_raises(cluster):
    site = cluster.site(0)
    msg = Message(src=1, dst=0, mtype=MessageType.MGR_TXN_DONE, txn_id=1)
    errors = []

    def go(ctx: HandlerContext) -> None:
        try:
            site.handle(ctx, msg)
        except ProtocolError as exc:
            errors.append(exc)

    cluster.network.spawn(site, go)
    cluster.scheduler.run()
    assert errors


def test_stale_vote_ack_ignored(cluster):
    """A VOTE_ACK for a transaction the coordinator no longer tracks is
    dropped without side effects."""
    site = cluster.site(0)
    deliver(cluster, site, MessageType.VOTE_ACK, txn_id=999, src=1)
    assert site.coordinator.active == {}


def test_stale_commit_ack_ignored(cluster):
    site = cluster.site(0)
    deliver(cluster, site, MessageType.COMMIT_ACK, txn_id=999, src=1)
    assert site.coordinator.active == {}


def test_stale_copy_resp_ignored(cluster):
    site = cluster.site(0)
    deliver(
        cluster, site, MessageType.COPY_RESP,
        payload={"copies": [(0, 5, 3)]}, txn_id=999, src=1,
    )
    # Nothing installed: the value stays initial.
    assert site.db.read(0) == 0


def test_commit_for_unstaged_txn_still_acked(cluster):
    """A COMMIT without prior staging (should not happen serially) is
    acknowledged so the coordinator does not hang."""
    site = cluster.site(1)
    cluster.obs.enabled = True
    deliver(cluster, site, MessageType.COMMIT, txn_id=55, src=0)
    assert len(messages(cluster, MessageType.COMMIT_ACK, txn=55)) == 1


def test_abort_without_staging_is_noop(cluster):
    site = cluster.site(1)
    deliver(cluster, site, MessageType.ABORT, txn_id=55, src=0)
    assert site.participant.staged == {}


def test_clear_notice_for_unlocked_items_is_noop(cluster):
    site = cluster.site(1)
    deliver(
        cluster, site, MessageType.CLEAR_FAILLOCKS,
        payload={"site": 0, "items": [0, 1]}, src=0,
    )
    assert site.faillocks.total_locks() == 0


def test_duplicate_recovery_announce_is_idempotent(cluster):
    site = cluster.site(1)
    payload = {"site": 2, "session": 2, "respond": 0}
    deliver(cluster, site, MessageType.RECOVERY_ANNOUNCE, payload=payload, src=2)
    deliver(cluster, site, MessageType.RECOVERY_ANNOUNCE, payload=payload, src=2)
    assert site.nsv.session_of(2) == 2
    assert site.nsv.is_operational(2)


def test_copy_request_for_unheld_item_denied():
    from repro.storage.catalog import ReplicationCatalog

    config = SystemConfig(db_size=2, num_sites=2, max_txn_size=2, seed=1)
    catalog = ReplicationCatalog(range(2), range(2))
    catalog.add_copy(0, 0)
    catalog.add_copy(0, 1)
    catalog.add_copy(1, 0)  # item 1 only on site 0
    cluster = Cluster(config, catalog=catalog)
    cluster.obs.enabled = True
    site1 = cluster.site(1)
    deliver(
        cluster, site1, MessageType.COPY_REQ, payload={"items": [1]}, src=0
    )
    assert len(messages(cluster, MessageType.COPY_DENIED)) == 1
