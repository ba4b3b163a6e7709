"""Cluster integration: failure, fail-locks, recovery (the paper's core)."""

import pytest

from repro.core.sessions import SiteState
from repro.net.message import MessageType
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.system.scenario import FailSite, FixedSite, RecoverSite, Scenario, Weighted
from repro.workload.uniform import UniformWorkload

from conftest import copies, make_scenario, messages, run_cluster


def failure_scenario(config, txn_count=40, fail_at=1, recover_at=21, site=0, **kw):
    scenario = make_scenario(config, txn_count, **kw)
    scenario.add_action(fail_at, FailSite(site))
    scenario.add_action(recover_at, RecoverSite(site))
    return scenario


def test_survivors_keep_committing(small_config):
    cluster = run_cluster(small_config, failure_scenario(small_config))
    assert cluster.metrics.counters["commits"] == 40
    assert cluster.metrics.counters["aborts"] == 0


def test_failed_site_receives_nothing(small_config):
    cluster = Cluster(small_config)
    scenario = make_scenario(small_config, 10)
    scenario.add_action(1, FailSite(2))
    cluster.run(scenario)
    # Site 2 saw the MGR_FAIL and nothing else.
    assert len(cluster.site(2).db.log) == 0


def test_faillocks_set_for_down_site(small_config):
    cluster = Cluster(small_config)
    scenario = make_scenario(small_config, 20)
    scenario.add_action(1, FailSite(2))
    metrics = cluster.run(scenario)
    locks = cluster.faillock_counts()
    assert locks[2] > 0
    assert locks[0] == locks[1] == 0
    # The down site's copy really is stale.
    assert cluster.audit_consistency() == []


def test_survivor_tables_agree(small_config):
    cluster = Cluster(small_config)
    scenario = make_scenario(small_config, 25)
    scenario.add_action(1, FailSite(2))
    cluster.run(scenario)
    assert cluster.site(0).faillocks == cluster.site(1).faillocks


def test_recovery_installs_state_and_session(small_config):
    cluster = run_cluster(small_config, failure_scenario(small_config, site=2))
    site = cluster.site(2)
    assert site.alive
    assert site.nsv.my_session == 2  # new session after one recovery
    # Everyone agrees it is up with session 2.
    for other in cluster.sites:
        assert other.nsv.state_of(2) is SiteState.UP
        assert other.nsv.session_of(2) == 2


def test_recovered_site_fully_refreshed(small_config):
    config = small_config
    scenario = failure_scenario(config, txn_count=30, site=2)
    scenario.until_recovered = (2,)
    scenario.max_txns = 500
    cluster = run_cluster(config, scenario)
    assert cluster.faillock_counts()[2] == 0
    dumps = [copies(site.db) for site in cluster.sites]
    assert dumps[0] == dumps[1] == dumps[2]


def test_faillocks_cleared_by_writes(small_config):
    """During recovery, committed writes refresh the recovered site."""
    cluster = run_cluster(small_config, failure_scenario(small_config, site=1))
    site = cluster.site(1)
    assert site.recovery.stats.refreshed_by_write > 0


def test_type1_control_messages_flow(small_config):
    cluster = run_cluster(
        small_config, failure_scenario(small_config, site=1), obs=True
    )
    assert len(messages(cluster, MessageType.RECOVERY_ANNOUNCE)) >= 2
    assert len(messages(cluster, MessageType.RECOVERY_STATE)) == 1
    assert cluster.metrics.counters["control_type1"] >= 1


def test_repeated_fail_recover_increments_session(small_config):
    scenario = make_scenario(small_config, 30)
    scenario.add_action(1, FailSite(0))
    scenario.add_action(11, RecoverSite(0))
    scenario.add_action(16, FailSite(0))
    scenario.add_action(26, RecoverSite(0))
    cluster = run_cluster(small_config, scenario)
    assert cluster.site(0).nsv.my_session == 3


def test_two_site_total_failover(paper2_config):
    """Site 0 down, then site 1 down while 0 recovers (scenario-1 shape)."""
    scenario = make_scenario(paper2_config, 60)
    scenario.add_action(1, FailSite(0))
    scenario.add_action(21, RecoverSite(0))
    scenario.add_action(21, FailSite(1))
    scenario.add_action(41, RecoverSite(1))
    cluster = run_cluster(paper2_config, scenario)
    # Some aborts are expected (items whose only good copy was on site 1).
    metrics = cluster.metrics
    assert metrics.counters["commits"] + metrics.counters["aborts"] == 60
    assert cluster.audit_consistency() == []


def test_abort_when_no_good_copy(paper2_config):
    """A read of an item whose only up-to-date copy is down must abort."""
    scenario = make_scenario(paper2_config, 120)
    scenario.add_action(1, FailSite(0))
    scenario.add_action(41, RecoverSite(0))
    scenario.add_action(41, FailSite(1))
    cluster = run_cluster(paper2_config, scenario)
    aborted = cluster.metrics.aborted
    assert aborted, "expected at least one copy-unavailable abort"
    assert all(t.abort_reason.value == "copy_unavailable" for t in aborted)


def test_manager_waits_for_recovery(small_config):
    """The transaction after a RecoverSite action starts only after the
    type-1 control transaction completes."""
    cluster = Cluster(small_config)
    scenario = failure_scenario(small_config, txn_count=25, site=1)
    metrics = cluster.run(scenario)
    type1 = [c for c in metrics.controls if c.kind == 1 and c.role == "recovering"]
    assert len(type1) == 1
    txn21 = next(t for t in metrics.txns if t.seq == 21)
    assert txn21.submitted_at >= type1[0].finished_at


def test_write_value_provenance(small_config):
    """Committed values encode their writing transaction (auditability)."""
    from repro.site.coordinator import write_value

    cluster = run_cluster(small_config, make_scenario(small_config, 15))
    for site in cluster.sites:
        for item_id, data in copies(site.db).items():
            value, version = data
            if version > 0:
                writes = [r for r in site.db.log.records if r.item_id == item_id]
                assert value == write_value(writes[-1].txn_id, item_id)
                # Versions are strictly increasing per item (commit-point
                # stamps from the logical clock).
                versions = [r.new_version for r in writes]
                assert versions == sorted(versions)
                assert len(set(versions)) == len(versions)
