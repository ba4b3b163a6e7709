"""Larger-configuration smoke tests: the system scales past paper sizes."""

import pytest

from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.system.scenario import FailSite, RecoverSite

from conftest import make_scenario, run_cluster


def test_eight_sites_five_hundred_items():
    config = SystemConfig(
        db_size=500,
        num_sites=8,
        max_txn_size=10,
        seed=1,
    )
    scenario = make_scenario(config, 120)
    scenario.add_action(10, FailSite(3))
    scenario.add_action(60, RecoverSite(3))
    cluster = run_cluster(config, scenario)
    assert cluster.metrics.counters["commits"] == 120
    assert cluster.audit_consistency() == []


def test_many_failures_many_sites():
    config = SystemConfig(
        db_size=100,
        num_sites=6,
        max_txn_size=6,
        seed=2,
    )
    scenario = make_scenario(config, 150)
    # Rolling failures over five of the six sites.
    for index, site in enumerate(range(5)):
        scenario.add_action(10 + 20 * index, FailSite(site))
        scenario.add_action(25 + 20 * index, RecoverSite(site))
    cluster = run_cluster(config, scenario)
    assert cluster.audit_consistency() == []
    metrics = cluster.metrics
    assert metrics.counters["commits"] + metrics.counters["aborts"] == 150
    # Two type-1 records per recovery (recovering + responder roles).
    assert len(metrics.control_times(1, "recovering")) == 5
    assert len(metrics.control_times(1, "operational")) == 5


def test_big_recovery_state_transfer():
    """Type-1 cost scales with database size without breaking anything."""
    config = SystemConfig(db_size=1000, num_sites=2, max_txn_size=5, seed=3)
    scenario = make_scenario(config, 30)
    scenario.add_action(2, FailSite(1))
    scenario.add_action(20, RecoverSite(1))
    cluster = run_cluster(config, scenario)
    type1 = [c for c in cluster.metrics.controls if c.kind == 1]
    assert type1
    # With 1000 items the install dominates: much more than the paper's
    # 190 ms at 50 items.
    recovering = [c for c in type1 if c.role == "recovering"]
    assert recovering[0].elapsed > 1000
