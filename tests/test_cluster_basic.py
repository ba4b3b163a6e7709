"""Cluster integration: healthy-path transaction processing."""

import pytest

from repro.net.message import MessageType
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.system.scenario import FixedSite, RoundRobin

from conftest import copies, make_scenario, messages, run_cluster, scale_costs


def test_all_commit_when_healthy(small_config):
    cluster = run_cluster(small_config, make_scenario(small_config, 50))
    assert cluster.metrics.counters["commits"] == 50
    assert cluster.metrics.counters["aborts"] == 0


def test_replicas_agree_after_run(small_config):
    cluster = run_cluster(small_config, make_scenario(small_config, 50))
    dumps = [copies(site.db) for site in cluster.sites]
    assert dumps[0] == dumps[1] == dumps[2]
    assert cluster.audit_consistency() == []


def test_no_faillocks_without_failures(small_config):
    cluster = run_cluster(small_config, make_scenario(small_config, 30))
    assert cluster.faillock_counts() == {0: 0, 1: 0, 2: 0}


def test_writes_reach_every_site(small_config):
    cluster = run_cluster(small_config, make_scenario(small_config, 20))
    committed = cluster.metrics.committed
    total_written = sum(t.items_written for t in committed)
    assert total_written > 0
    # Every committed write appears in every site's redo log.
    txn_ids = {t.txn_id for t in committed}
    for site in cluster.sites:
        logged = sum(1 for r in site.db.log.records if r.txn_id in txn_ids)
        assert logged == total_written


def test_read_only_txn_commits_without_participants(small_config):
    from repro.txn.operations import OpKind, Operation
    from repro.workload.base import WorkloadGenerator

    class ReadOnly(WorkloadGenerator):
        def generate(self, txn_seq, rng):
            return [Operation(OpKind.READ, 0)]

    from repro.system.scenario import Scenario

    cluster = Cluster(small_config)
    cluster.obs.enabled = True
    metrics = cluster.run(Scenario(workload=ReadOnly(), txn_count=3))
    assert metrics.counters["commits"] == 3
    # No phase-1/phase-2 messages at all.
    assert messages(cluster, MessageType.VOTE_REQ) == []
    assert messages(cluster, MessageType.COMMIT) == []


def test_write_txn_message_shape(small_config):
    """A 3-site write transaction is 2 VOTE_REQ + 2 acks + 2 COMMIT + 2 acks."""
    from repro.txn.operations import OpKind, Operation
    from repro.workload.base import WorkloadGenerator
    from repro.system.scenario import Scenario

    class OneWrite(WorkloadGenerator):
        def generate(self, txn_seq, rng):
            return [Operation(OpKind.WRITE, 1)]

    cluster = Cluster(small_config)
    cluster.obs.enabled = True
    cluster.run(Scenario(workload=OneWrite(), txn_count=1, policy=FixedSite(0)))
    assert len(messages(cluster, MessageType.VOTE_REQ, txn=1)) == 2
    assert len(messages(cluster, MessageType.VOTE_ACK, txn=1)) == 2
    assert len(messages(cluster, MessageType.COMMIT, txn=1)) == 2
    assert len(messages(cluster, MessageType.COMMIT_ACK, txn=1)) == 2


def test_coordinator_times_recorded(small_config):
    cluster = run_cluster(small_config, make_scenario(small_config, 10))
    for record in cluster.metrics.committed:
        assert record.coordinator_elapsed > 0
        # Two participants per committed write transaction.
        if record.items_written:
            assert len(record.participant_elapsed) == 2
            assert all(v > 0 for v in record.participant_elapsed.values())


def test_round_robin_policy_spreads(small_config):
    scenario = make_scenario(small_config, 9, policy=RoundRobin())
    cluster = run_cluster(small_config, scenario)
    coords = [t.coordinator for t in cluster.metrics.txns]
    assert coords == [0, 1, 2, 0, 1, 2, 0, 1, 2]


def test_single_site_cluster_works():
    config = SystemConfig(db_size=5, num_sites=1, max_txn_size=3, seed=1)
    cluster = run_cluster(config, make_scenario(config, 10))
    assert cluster.metrics.counters["commits"] == 10


def test_simulated_time_advances(small_config):
    cluster = run_cluster(small_config, make_scenario(small_config, 10))
    assert cluster.now > 0
    finishes = [t.finished_at for t in cluster.metrics.txns]
    assert finishes == sorted(finishes)  # serial processing


def test_observer_site_is_lowest_alive(small_config):
    cluster = Cluster(small_config)
    assert cluster.observer_site().site_id == 0
    cluster.site(0).alive = False
    assert cluster.observer_site().site_id == 1


def test_zero_cost_config_still_correct(monkeypatch, small_config):
    scale_costs(monkeypatch, 0.0)
    cluster = run_cluster(small_config, make_scenario(small_config, 30))
    assert cluster.metrics.counters["commits"] == 30
    assert cluster.audit_consistency() == []
