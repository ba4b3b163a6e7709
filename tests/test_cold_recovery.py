"""Cold recovery: a crash that loses the site's volatile database."""

import pytest

from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.system.scenario import FailSite, RecoverSite

from conftest import copies, make_scenario, run_cluster


def cold_config(**kw):
    defaults = dict(
        db_size=10, num_sites=3, max_txn_size=4, seed=21, cold_recovery=True
    )
    defaults.update(kw)
    return SystemConfig(**defaults)


def test_crash_wipes_database():
    config = cold_config()
    cluster = Cluster(config)
    scenario = make_scenario(config, 10)
    scenario.add_action(5, FailSite(2))
    cluster.run(scenario)
    assert all(v == 0 for v, _ver in copies(cluster.site(2).db).values())
    assert len(cluster.site(2).db.log) == 0


def test_every_copy_faillocked_on_cold_recovery():
    config = cold_config()
    cluster = Cluster(config)
    scenario = make_scenario(config, 12)
    scenario.add_action(5, FailSite(2))
    scenario.add_action(10, RecoverSite(2))
    metrics = cluster.run(scenario)
    # At the moment of recovery (before txn 10's writes), all 10 items were
    # locked; find the sample right after recovery.
    sample = next(s for s in metrics.faillock_samples if s.seq == 10)
    assert sample.locks_per_site[2] >= config.db_size - metrics.txns[9].items_written


def test_cold_recovery_completes_and_is_consistent():
    config = cold_config()
    scenario = make_scenario(config, 20)
    scenario.add_action(3, FailSite(1))
    scenario.add_action(8, RecoverSite(1))
    scenario.until_recovered = (1,)
    scenario.max_txns = 1000
    cluster = run_cluster(config, scenario)
    assert cluster.faillock_counts()[1] == 0
    assert cluster.audit_consistency() == []
    dumps = [copies(site.db) for site in cluster.sites]
    assert dumps[0] == dumps[1] == dumps[2]


def test_warm_recovery_unaffected_by_flag_off():
    config = cold_config(cold_recovery=False)
    cluster = Cluster(config)
    scenario = make_scenario(config, 12)
    scenario.add_action(5, FailSite(2))
    scenario.add_action(10, RecoverSite(2))
    metrics = cluster.run(scenario)
    sample = next(s for s in metrics.faillock_samples if s.seq == 10)
    # Warm: only the items written during the outage are stale (< all).
    assert sample.locks_per_site[2] < config.db_size


def test_cold_recovery_takes_longer_than_warm():
    def recovery_length(cold: bool) -> int:
        config = cold_config(db_size=20, num_sites=2, cold_recovery=cold, seed=31)
        scenario = make_scenario(config, 10)
        scenario.add_action(3, FailSite(1))
        scenario.add_action(8, RecoverSite(1))
        scenario.until_recovered = (1,)
        scenario.max_txns = 2000
        cluster = run_cluster(config, scenario)
        return len(cluster.metrics.txns)

    assert recovery_length(True) > recovery_length(False)


def test_cold_recovered_site_denied_as_copier_source():
    """A freshly cold-recovered site cannot serve copies — everything it
    holds is fail-locked, so the planner never picks it as a source."""
    config = cold_config(num_sites=3)
    cluster = Cluster(config)
    scenario = make_scenario(config, 12)
    scenario.add_action(3, FailSite(2))
    scenario.add_action(10, RecoverSite(2))
    cluster.run(scenario)
    planner = cluster.site(0).planner
    # Any item still stale on site 2 must not name site 2 as a source.
    for item in cluster.site(0).faillocks.locked_items_for(2):
        assert planner.up_to_date_source(item) != 2
