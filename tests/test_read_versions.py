"""A read records the version it saw.

``Transaction.reads[item]`` is the committed version a read returned: the
local copy's, the responder's in a ``COPY_RESP`` for a copy held
elsewhere, and under quorum the highest of the local copy's and every
vote's.  A one-copy-serializability check is built on these versions, so
each must be one some commit actually wrote (or 0, the initial version).
"""

from collections import defaultdict

import pytest

from repro.core.strategy import CopyControlStrategy
from repro.net.message import MessageType
from repro.site.coordinator import CoordinatorRole
from repro.storage.catalog import ReplicationCatalog
from repro.storage.database import SiteDatabase
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.txn.operations import OpKind, Operation

from conftest import handle, soak_under


def submit_read(cluster, site_id, item, txn_id):
    ops = [Operation(OpKind.READ, item)]
    return handle(
        cluster, site_id, MessageType.MGR_SUBMIT_TXN,
        {"ops": ops, "coordinator": site_id}, txn_id=txn_id,
    )


@pytest.mark.parametrize("strategy", ["rowaa", "quorum"])
def test_every_read_version_was_written(strategy, monkeypatch):
    """A short soak through its fail / recover cycle: every version a
    committed transaction read is 0 or one that some site applied."""
    applied = defaultdict(set)
    committed_reads = []
    apply_writes = SiteDatabase.apply_writes
    local_commit = CoordinatorRole._local_commit

    def record_applied(self, txn_id, updates, time):
        for item, _value, version in updates:
            applied[item].add(version)
        return apply_writes(self, txn_id, updates, time)

    def record_reads(self, ctx, state):
        committed_reads.append(dict(state.txn.reads))
        return local_commit(self, ctx, state)

    monkeypatch.setattr(SiteDatabase, "apply_writes", record_applied)
    monkeypatch.setattr(CoordinatorRole, "_local_commit", record_reads)
    result = soak_under(monkeypatch, strategy, seed=3, txns=300, rate_tps=40.0)
    assert result.fault.recover_done_ms is not None  # through its fail / recover cycle
    reads = [(item, version) for txn in committed_reads for item, version in txn.items()]
    assert len(reads) > 300
    assert any(version > 0 for _item, version in reads)
    unwritten = [
        (item, version) for item, version in reads
        if version != 0 and version not in applied[item]
    ]
    assert unwritten == []


def test_quorum_read_keeps_the_highest_vote():
    """Votes v5 then v3 over a stale local v1: the read keeps v5, not the
    last vote newer than the local copy."""
    config = SystemConfig(
        db_size=4, num_sites=3, max_txn_size=2, seed=1,
        strategy=CopyControlStrategy.QUORUM,
    )
    cluster = Cluster(config)
    coordinator = cluster.site(0)
    coordinator.db.apply_writes(1, [(1, 1, 1)], time=0.0)
    sent = submit_read(cluster, 0, 1, txn_id=7)
    assert sorted(m.dst for m in sent if m.mtype is MessageType.VOTE_REQ) == [1, 2]
    reads = coordinator.coordinator.active[7].txn.reads
    assert reads == {1: 1}
    handle(cluster, 0, MessageType.VOTE_ACK, {"read_versions": [(1, 5, 5)]}, src=1, txn_id=7)
    handle(cluster, 0, MessageType.VOTE_ACK, {"read_versions": [(1, 3, 3)]}, src=2, txn_id=7)
    assert reads == {1: 5}


def test_remote_read_records_the_responders_version(monkeypatch):
    """Over a partial catalog a read of a copy held elsewhere records the
    version the responder's COPY_RESP carried."""
    committed_reads = []
    local_commit = CoordinatorRole._local_commit

    def record_reads(self, ctx, state):
        committed_reads.append(dict(state.txn.reads))
        return local_commit(self, ctx, state)

    monkeypatch.setattr(CoordinatorRole, "_local_commit", record_reads)
    catalog = ReplicationCatalog(range(2), range(2))
    catalog.add_copy(0, 0)
    catalog.add_copy(0, 1)
    catalog.add_copy(1, 1)  # item 1 only on site 1
    config = SystemConfig(db_size=2, num_sites=2, max_txn_size=2, seed=1)
    cluster = Cluster(config, catalog=catalog)
    [request] = submit_read(cluster, 0, 1, txn_id=7)
    assert (request.dst, request.mtype, request.payload) == (
        1, MessageType.COPY_REQ, {"items": [1]},
    )
    handle(cluster, 0, MessageType.COPY_RESP, {"copies": [(1, 40, 4)]}, src=1, txn_id=7)
    assert committed_reads == [{1: 4}]
