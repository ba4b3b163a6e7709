"""Type-1 responder failover: the designated responder is down."""

import pytest

from repro.core.sessions import SiteState
from repro.net.message import MessageType
from repro.obs.events import EventKind
from repro.system.cluster import Cluster
from repro.system.config import FailureDetection, SystemConfig
from repro.system.scenario import FailSite, RecoverSite

from conftest import make_scenario, messages, run_cluster


def test_recovery_retries_next_candidate():
    """Sites 0 and 1 are down; when site 0 recovers it asks site 1 first
    (its stale NSV still believes 1 up under TIMEOUT detection), gets a
    bounce, marks 1 down, and obtains state from site 2 instead."""
    config = SystemConfig(
        db_size=8,
        num_sites=3,
        max_txn_size=3,
        seed=6,
        detection=FailureDetection.TIMEOUT,
    )
    cluster = Cluster(config)
    cluster.obs.enabled = True
    scenario = make_scenario(config, 20)
    scenario.add_action(2, FailSite(0))
    scenario.add_action(4, FailSite(1))
    scenario.add_action(10, RecoverSite(0))
    cluster.run(scenario)
    site0 = cluster.site(0)
    assert site0.alive
    assert site0.nsv.is_operational(0)
    # It learned site 1 is down during the retry.
    assert site0.nsv.state_of(1) is SiteState.DOWN
    # A RECOVERY_STATE did arrive (from site 2).
    state_msgs = messages(
        cluster, MessageType.RECOVERY_STATE, kinds=(EventKind.MSG_RECV,)
    )
    assert state_msgs and state_msgs[-1].args["src"] == 2


def test_solo_recovery_when_every_peer_is_down():
    """The last standing site fails and recovers with no peers: it comes
    back solo with its own state."""
    config = SystemConfig(
        db_size=8,
        num_sites=2,
        max_txn_size=3,
        seed=6,
        detection=FailureDetection.TIMEOUT,
    )
    cluster = Cluster(config)
    scenario = make_scenario(config, 16)
    scenario.add_action(2, FailSite(1))
    # Site 0 (now alone) keeps processing; later site 1 recovers; then site
    # 0 fails and recovers while... instead simplest: recover 1, fail 0,
    # then recover 0 while 1 is also down.
    scenario.add_action(6, FailSite(0))
    scenario.add_action(6, RecoverSite(1))
    scenario.add_action(10, FailSite(1))
    scenario.add_action(10, RecoverSite(0))
    cluster.run(scenario)
    site0 = cluster.site(0)
    assert site0.alive
    assert site0.nsv.is_operational(0)
    assert site0.nsv.state_of(1) is SiteState.DOWN


def test_single_site_system_fail_recover():
    config = SystemConfig(db_size=5, num_sites=1, max_txn_size=2, seed=6)
    cluster = Cluster(config)
    scenario = make_scenario(config, 10)
    # Fail and immediately recover (a one-site system has no survivor to
    # process transactions during the outage).
    scenario.add_action(3, FailSite(0))
    scenario.add_action(3, RecoverSite(0))
    metrics = cluster.run(scenario)
    assert metrics.counters["commits"] == 10
    assert cluster.site(0).nsv.my_session == 2
