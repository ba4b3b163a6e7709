"""ManagingSite driver behaviour."""

import pytest

from repro.errors import ConfigurationError
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.system.scenario import FailSite, RecoverSite, Scenario
from repro.workload.uniform import UniformWorkload

from conftest import make_scenario, run_cluster


def test_txn_records_numbered_sequentially(small_config):
    cluster = run_cluster(small_config, make_scenario(small_config, 12))
    assert [t.seq for t in cluster.metrics.txns] == list(range(1, 13))
    assert [t.txn_id for t in cluster.metrics.txns] == list(range(1, 13))


def test_faillock_sample_per_txn(small_config):
    cluster = run_cluster(small_config, make_scenario(small_config, 12))
    samples = cluster.metrics.faillock_samples
    assert [s.seq for s in samples] == list(range(1, 13))
    assert all(s.time > 0 for s in samples)


def test_zero_txn_scenario_finishes_immediately(small_config):
    cluster = run_cluster(small_config, make_scenario(small_config, 0))
    assert cluster.manager.finished
    assert cluster.metrics.txns == []


def test_max_txns_caps_until_recovered(small_config):
    scenario = make_scenario(small_config, 5)
    scenario.add_action(1, FailSite(2))
    # Site 2 never recovers, so until_recovered can never be satisfied;
    # max_txns must stop the run.
    scenario.until_recovered = (2,)
    scenario.max_txns = 20
    cluster = run_cluster(small_config, scenario)
    assert len(cluster.metrics.txns) == 20


def test_until_recovered_extends_past_txn_count(small_config):
    scenario = make_scenario(small_config, 10)
    scenario.add_action(1, FailSite(2))
    scenario.add_action(8, RecoverSite(2))
    scenario.until_recovered = (2,)
    scenario.max_txns = 500
    cluster = run_cluster(small_config, scenario)
    assert len(cluster.metrics.txns) >= 10
    assert cluster.faillock_counts()[2] == 0


def test_believed_up_tracks_actions(small_config):
    cluster = Cluster(small_config)
    scenario = make_scenario(small_config, 10)
    scenario.add_action(3, FailSite(1))
    scenario.add_action(7, RecoverSite(1))
    cluster.run(scenario)
    assert cluster.manager.up_sites == [0, 1, 2]
    coords = {t.seq: t.coordinator for t in cluster.metrics.txns}
    # While site 1 was down (txns 3-6), it never coordinated.
    for seq in range(3, 7):
        assert coords[seq] != 1


def test_second_scenario_rejected_while_running(small_config):
    cluster = Cluster(small_config)
    cluster.manager.run(make_scenario(small_config, 3))
    with pytest.raises(ConfigurationError):
        cluster.manager.run(make_scenario(small_config, 3))


def test_sequential_scenarios_on_same_cluster(small_config):
    """A finished cluster can run a follow-up scenario."""
    cluster = Cluster(small_config)
    cluster.run(make_scenario(small_config, 5))
    cluster.run(make_scenario(small_config, 5))
    assert len(cluster.metrics.txns) == 10
    # Transaction ids keep increasing across scenarios.
    assert [t.txn_id for t in cluster.metrics.txns] == list(range(1, 11))
