"""Copier transactions: the source choice, and the COPY_REQ / COPY_RESP /
CLEAR_FAILLOCKS exchange at the site handlers (each payload is built
where it is sent and read where it arrives)."""

import pytest

from repro.core import copier
from repro.core.faillocks import FailLockTable
from repro.core.rowaa import RowaaPlanner
from repro.core.sessions import NominalSessionVector
from repro.net.message import MessageType
from repro.site.site import BATCH_COPIER_TXN
from repro.storage.catalog import ReplicationCatalog
from repro.storage.database import SiteDatabase
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.txn.operations import OpKind, Operation

from conftest import copies, handle


@pytest.fixture
def world():
    sites = [0, 1, 2]
    items = list(range(4))
    nsv = NominalSessionVector(owner=0, site_ids=sites)
    locks = FailLockTable(site_ids=sites, item_ids=items)
    catalog = ReplicationCatalog.fully_replicated(items, sites)
    db = SiteDatabase(0, items)
    planner = RowaaPlanner(0, nsv, locks, catalog)
    return nsv, locks, db, planner


def test_choose_source_per_item(world):
    _nsv, locks, _db, planner = world
    locks.set_lock(0, 0)
    locks.set_lock(1, 0)
    locks.set_lock(1, 1)
    sources = copier.choose_copier_source(planner, [0, 1])
    assert sources == {0: 1, 1: 2}


def test_choose_source_reports_unavailable(world):
    nsv, locks, _db, planner = world
    locks.set_lock(0, 0)
    nsv.mark_down(1)
    nsv.mark_down(2)
    assert copier.choose_copier_source(planner, [0]) == {0: -1}


@pytest.fixture
def cluster():
    return Cluster(SystemConfig(db_size=4, num_sites=3, max_txn_size=2, seed=1))


def stale_read(cluster, txn_id=7):
    """Site 0 coordinates a read of items 3 and 1, both fail-locked there;
    returns the copier requests it sends."""
    cluster.site(0).faillocks.set_locks([3, 1], 0)
    ops = [Operation(OpKind.READ, 3), Operation(OpKind.READ, 1)]
    return handle(
        cluster, 0, MessageType.MGR_SUBMIT_TXN, {"ops": ops, "coordinator": 0},
        txn_id=txn_id,
    )


def test_request_payload_sorted(cluster):
    [request] = stale_read(cluster)
    assert (request.dst, request.mtype) == (1, MessageType.COPY_REQ)
    assert request.payload == {"items": [1, 3]}


def test_response_payload_carries_snapshots(cluster):
    cluster.site(1).db.apply_writes(5, [(1, 77, 5)], time=1.0)
    [response] = handle(cluster, 1, MessageType.COPY_REQ, {"items": [1, 0]}, src=0)
    assert (response.dst, response.mtype) == (0, MessageType.COPY_RESP)
    assert response.payload == {"copies": [(0, 0, 0), (1, 77, 5)]}


def test_apply_response_installs_and_clears(cluster):
    """The coordinator's copier: the response is installed, the fail-locks
    cleared, and the special transaction tells every peer which."""
    site = cluster.site(0)
    stale_read(cluster)
    sent = handle(
        cluster, 0, MessageType.COPY_RESP,
        {"copies": [(1, 99, 7), (3, 55, 6)]}, src=1, txn_id=7,
    )
    assert copies(site.db) == {0: (0, 0), 1: (99, 7), 2: (0, 0), 3: (55, 6)}
    assert site.faillocks.count_for(0) == 0
    notices = [m for m in sent if m.mtype is MessageType.CLEAR_FAILLOCKS]
    assert [(m.dst, m.payload) for m in notices] == [
        (1, {"site": 0, "items": [1, 3]}),
        (2, {"site": 0, "items": [1, 3]}),
    ]


def test_apply_response_clears_even_if_local_newer(cluster):
    """A batch COPY_RESP older than the local copy is not installed, but
    the fail-lock is still cleared: the local copy is current."""
    site = cluster.site(0)
    site.faillocks.set_lock(1, 0)
    site.db.apply_writes(9, [(1, 100, 9)], time=1.0)
    handle(
        cluster, 0, MessageType.COPY_RESP, {"copies": [(1, 50, 5)]},
        src=1, txn_id=BATCH_COPIER_TXN,
    )
    assert copies(site.db)[1] == (100, 9)  # stale copy not installed
    assert not site.faillocks.is_locked(1, 0)  # but the lock is resolved


def test_clear_notice_roundtrip(cluster):
    """A batch copier's clear notice reaches a peer and clears its bits."""
    cluster.site(0).faillocks.set_locks([2, 3], 0)
    peer = cluster.site(1)
    peer.faillocks.set_locks([2, 3], 0)
    sent = handle(
        cluster, 0, MessageType.COPY_RESP, {"copies": [(3, 5, 2), (2, 4, 1)]},
        src=2, txn_id=BATCH_COPIER_TXN,
    )
    notice = next(m for m in sent if m.dst == 1)
    assert notice.mtype is MessageType.CLEAR_FAILLOCKS
    assert notice.payload == {"site": 0, "items": [2, 3]}
    handle(cluster, 1, notice.mtype, notice.payload, src=0, txn_id=notice.txn_id)
    assert peer.faillocks.count_for(0) == 0


def test_clear_notice_ignores_already_clear(cluster):
    """Bits a notice names that are already clear stay clear; the others
    it names are cleared, and bits it does not name are kept."""
    site = cluster.site(1)
    site.faillocks.set_locks([0, 2], 0)
    handle(
        cluster, 1, MessageType.CLEAR_FAILLOCKS, {"site": 0, "items": [0, 1]}, src=0
    )
    assert site.faillocks.locked_items_for(0) == [2]
