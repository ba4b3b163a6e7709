"""Partial replication: routing, remote reads, and the audit invariant."""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.storage.catalog import ReplicationCatalog
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.system.scenario import Scenario
from repro.workload.uniform import UniformWorkload

from conftest import FREE_COSTS, make_scenario, messages


@st.composite
def catalogs(draw):
    """A random catalog over 3 sites and 6 items, every item held
    somewhere."""
    items, sites = range(6), range(3)
    catalog = ReplicationCatalog(items, sites)
    for item in items:
        holders = draw(
            st.sets(st.sampled_from(list(sites)), min_size=1, max_size=3)
        )
        for site in holders:
            catalog.add_copy(item, site)
    return catalog


@settings(max_examples=15, deadline=None)
@given(catalog=catalogs(), seed=st.integers(min_value=0, max_value=999))
def test_random_partial_catalogs_commit_and_stay_consistent(catalog, seed):
    config = SystemConfig(
        db_size=6, num_sites=3, max_txn_size=3, seed=seed, costs=FREE_COSTS
    )
    cluster = Cluster(config, catalog=catalog)
    scenario = Scenario(
        workload=UniformWorkload(config.item_ids, config.max_txn_size),
        txn_count=30,
    )
    metrics = cluster.run(scenario)
    # No failures: everything commits, whatever the replica placement.
    assert metrics.counters["commits"] == 30
    assert cluster.audit_consistency() == []
    # Writes landed exactly on the holders.
    for item in catalog.item_ids:
        holders = catalog.holders(item)
        newest = max(cluster.site(s).db.version(item) for s in holders)
        for site_id in holders:
            assert cluster.site(site_id).db.version(item) == newest
        for site_id in set(range(3)) - holders:
            assert item not in cluster.site(site_id).db


def test_remote_read_returns_current_value():
    """A coordinator with no copy of an item reads it remotely and sees
    the latest committed value."""
    from repro.txn.operations import OpKind, Operation
    from repro.workload.base import WorkloadGenerator

    items, sites = range(2), range(2)
    catalog = ReplicationCatalog(items, sites)
    catalog.add_copy(0, 0)
    catalog.add_copy(0, 1)
    catalog.add_copy(1, 1)  # item 1 only on site 1

    class Script(WorkloadGenerator):
        def generate(self, txn_seq, rng):
            if txn_seq == 1:
                return [Operation(OpKind.WRITE, 1)]
            return [Operation(OpKind.READ, 1)]

    class Policy:
        def choose(self, seq, up_sites, rng):
            return 1 if seq == 1 else 0  # write at holder, read at non-holder

    config = SystemConfig(db_size=2, num_sites=2, max_txn_size=2, seed=4)
    cluster = Cluster(config, catalog=catalog)
    cluster.obs.enabled = True
    metrics = cluster.run(
        Scenario(workload=Script(), txn_count=2, policy=Policy())
    )
    assert metrics.counters["commits"] == 2
    read_txn = metrics.txns[1]
    assert read_txn.committed
    # The remote read used a COPY_REQ exchange.
    from repro.net.message import MessageType

    assert len(messages(cluster, MessageType.COPY_REQ, txn=read_txn.txn_id)) == 1


def test_remote_read_unavailable_when_holder_down():
    from repro.net.message import MessageType
    from repro.system.scenario import FailSite
    from repro.txn.operations import OpKind, Operation
    from repro.workload.base import WorkloadGenerator

    items, sites = range(2), range(2)
    catalog = ReplicationCatalog(items, sites)
    catalog.add_copy(0, 0)
    catalog.add_copy(0, 1)
    catalog.add_copy(1, 1)

    class ReadOne(WorkloadGenerator):
        def generate(self, txn_seq, rng):
            return [Operation(OpKind.READ, 1)]

    class ToSite0:
        def choose(self, seq, up_sites, rng):
            return 0

    config = SystemConfig(db_size=2, num_sites=2, max_txn_size=2, seed=4)
    cluster = Cluster(config, catalog=catalog)
    scenario = Scenario(workload=ReadOne(), txn_count=1, policy=ToSite0())
    scenario.add_action(1, FailSite(1))
    metrics = cluster.run(scenario)
    assert metrics.aborted[0].abort_reason.value == "copy_unavailable"
