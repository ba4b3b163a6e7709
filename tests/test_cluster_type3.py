"""Control transaction type 3: backup copies under partial replication."""

import pytest

from repro.errors import ProtocolError
from repro.net.message import MessageType
from repro.storage.catalog import ReplicationCatalog
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.system.scenario import Scenario
from repro.txn.operations import OpKind, Operation
from repro.workload.base import WorkloadGenerator

from conftest import copies, messages


def partial_cluster():
    """3 sites; item 0 everywhere, item 1 only on sites 0 and 1, item 2
    only on site 0."""
    config = SystemConfig(db_size=3, num_sites=3, max_txn_size=2, seed=9)
    catalog = ReplicationCatalog(range(3), range(3))
    for site in range(3):
        catalog.add_copy(0, site)
    catalog.add_copy(1, 0)
    catalog.add_copy(1, 1)
    catalog.add_copy(2, 0)
    return Cluster(config, catalog=catalog)


def test_partial_catalog_shapes_databases():
    cluster = partial_cluster()
    assert list(copies(cluster.site(0).db)) == [0, 1, 2]
    assert list(copies(cluster.site(1).db)) == [0, 1]
    assert list(copies(cluster.site(2).db)) == [0]


def test_type3_creates_backup_copy():
    cluster = partial_cluster()
    cluster.obs.enabled = True
    site0 = cluster.site(0)
    site0.db.apply_writes(5, [(2, 555, 5)], time=0.0)
    cluster.network.spawn(site0, lambda ctx: site0.initiate_backup(ctx, 2, 2))
    cluster.scheduler.run()
    assert cluster.catalog.holds(2, 2)
    assert cluster.site(2).db.read(2) == 555
    assert cluster.site(2).db.version(2) == 5
    assert len(messages(cluster, MessageType.CREATE_COPY)) == 1
    assert cluster.metrics.counters["control_type3"] == 1


def test_type3_duration_recorded():
    cluster = partial_cluster()
    site0 = cluster.site(0)
    cluster.network.spawn(site0, lambda ctx: site0.initiate_backup(ctx, 2, 1))
    cluster.scheduler.run()
    records = [c for c in cluster.metrics.controls if c.kind == 3]
    assert len(records) == 1
    assert records[0].elapsed > 0


def test_type3_rejects_existing_holder():
    cluster = partial_cluster()
    site0 = cluster.site(0)
    errors = []

    def go(ctx):
        try:
            site0.initiate_backup(ctx, 1, 1)  # site 1 already holds item 1
        except ProtocolError as exc:
            errors.append(exc)

    cluster.network.spawn(site0, go)
    cluster.scheduler.run()
    assert errors


def test_drop_backup_copy():
    cluster = partial_cluster()
    site0 = cluster.site(0)
    cluster.network.spawn(site0, lambda ctx: site0.initiate_backup(ctx, 2, 2))
    cluster.scheduler.run()
    cluster.site(2).drop_backup_copy(2)
    assert not cluster.catalog.holds(2, 2)
    assert 2 not in cluster.site(2).db


def test_partial_replication_transactions_route_writes_to_holders():
    cluster = partial_cluster()

    class WriteItem1(WorkloadGenerator):
        def generate(self, txn_seq, rng):
            return [Operation(OpKind.WRITE, 1)]

    metrics = cluster.run(Scenario(workload=WriteItem1(), txn_count=3))
    assert metrics.counters["commits"] == 3
    # Site 2 holds no copy of item 1, so it never participates.
    assert len(cluster.site(2).db.log) == 0
    assert cluster.site(0).db.version(1) == 3
    assert cluster.site(1).db.version(1) == 3


def test_items_on_follows_type3_create_and_drop():
    cluster = partial_cluster()
    catalog = cluster.catalog
    assert catalog.items_on(2) == [0]  # cached by the site build
    site0 = cluster.site(0)
    cluster.network.spawn(site0, lambda ctx: site0.initiate_backup(ctx, 2, 2))
    cluster.scheduler.run()
    assert catalog.items_on(2) == [0, 2]
    cluster.site(2).drop_backup_copy(2)
    assert catalog.items_on(2) == [0]
    assert catalog.items_on(0) == [0, 1, 2]  # other sites unaffected
