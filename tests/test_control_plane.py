"""The control-plane contract the four drivers share.

``ManagingSite``, ``OpenLoopManager``, ``SoakManager`` and
``InteractiveDriver`` differ in *when* they submit, fail and recover; what
each verb puts on the wire and into the trace is
:class:`repro.system.managing.ControlPlane`'s, and must read the same
whichever driver ran.  Each harness drives its driver through the surface
users reach it by and hands back the run's ``obs`` (read through
``conftest.messages``).
"""

import functools
from types import SimpleNamespace

import pytest

from repro.net.message import MessageType
from repro.obs.events import EventKind
from repro.obs.sink import TraceSink
from repro.soak import SoakConfig, run_soak
from repro.system.cluster import Cluster
from repro.system.config import FailureDetection, SystemConfig
from repro.system.interactive import InteractiveDriver
from repro.system.openloop import OpenLoopManager
from repro.system.scenario import FailSite, RecoverSite
from repro.workload.uniform import UniformWorkload
from conftest import make_scenario, messages, run_cluster

VICTIM = 1


def _config(**overrides) -> SystemConfig:
    return SystemConfig(
        db_size=16, num_sites=4, max_txn_size=3, seed=7,
        detection=FailureDetection.ANNOUNCED, **overrides,
    )


def _serial():
    config = _config()
    scenario = make_scenario(config, 16)
    scenario.add_action(3, FailSite(VICTIM))
    scenario.add_action(7, RecoverSite(VICTIM))
    return run_cluster(config, scenario, obs=True)


def _openloop():
    """``run_open_loop`` hides its cluster, so wire the manager by hand.
    It has no fail/recover surface of its own (and its ``handle`` takes
    only outcomes): the shared ``fail`` verb is called once the traffic
    has drained."""
    config = _config(concurrency_control=True)
    cluster = Cluster(config)
    cluster.obs.enabled = True
    cluster.install_deadlock_detector()
    manager = OpenLoopManager(cluster)
    cluster.network.replace_endpoint(manager)
    manager.launch(UniformWorkload(config.item_ids, config.max_txn_size), 16, 50.0)
    cluster.scheduler.run()
    cluster.network.spawn(manager, lambda ctx: manager.fail(ctx, VICTIM))
    cluster.scheduler.run()
    return cluster


def _soak():
    trace = TraceSink(enabled=True)
    run_soak(
        SoakConfig(
            txns=120, rate_tps=40.0, seed=3, detection="announced",
            fail_site=VICTIM,
        ),
        trace=trace,
    )
    return SimpleNamespace(obs=trace)  # all ``messages`` reads of a cluster


def _interactive():
    cluster = Cluster(_config())
    cluster.obs.enabled = True
    driver = InteractiveDriver(cluster)
    driver.run_txns(2)
    driver.fail_site(VICTIM)
    driver.run_txns(4)
    driver.recover_site(VICTIM)
    driver.run_txns(10)
    return cluster


HARNESSES = {
    "serial": _serial,
    "openloop": _openloop,
    "soak": _soak,
    "interactive": _interactive,
}


every_driver = pytest.mark.parametrize("driver", sorted(HARNESSES))


@functools.cache
def _run(driver: str):
    """One traced run per driver, shared by the (read-only) tests."""
    return HARNESSES[driver]()


def _of(cluster, kind):
    return [event for event in cluster.obs.events if event.kind is kind]


@every_driver
def test_fail_is_mgr_fail_then_one_announcement_per_survivor_ascending(driver):
    cluster = _run(driver)
    (fail,) = messages(cluster, MessageType.MGR_FAIL)
    assert fail.args["dst"] == VICTIM
    manager = fail.site
    # What the failing activation sent, in wire order.
    burst = [
        (event.args["mtype"], event.args["dst"])
        for event in messages(cluster)
        if event.site == manager and event.t == fail.t
        and event.args["mtype"] != MessageType.MGR_SUBMIT_TXN.value
    ]
    assert burst == [(MessageType.MGR_FAIL.value, VICTIM)] + [
        (MessageType.FAILURE_ANNOUNCE.value, site) for site in (0, 2, 3)
    ]


# The open-loop source never recovers a site.
@pytest.mark.parametrize("driver", ["interactive", "serial", "soak"])
def test_recover_readmits_the_site_only_on_recover_done(driver):
    cluster = _run(driver)
    (fail,) = messages(cluster, MessageType.MGR_FAIL)
    (recover,) = messages(cluster, MessageType.MGR_RECOVER)
    (done,) = messages(
        cluster, MessageType.MGR_RECOVER_DONE, kinds=(EventKind.MSG_RECV,)
    )
    assert recover.args["dst"] == VICTIM and fail.t <= recover.t < done.t
    # Believed down — never chosen to coordinate — from the fail until the
    # MGR_RECOVER_DONE arrives, not merely until MGR_RECOVER is sent.
    to_victim = [
        event.seq for event in _of(cluster, EventKind.TXN_SUBMIT)
        if event.args["coordinator"] == VICTIM
    ]
    assert not [seq for seq in to_victim if fail.seq < seq < done.seq]
    assert [seq for seq in to_victim if seq > done.seq]


@every_driver
def test_every_submitted_txn_has_one_submit_event_naming_its_coordinator(driver):
    cluster = _run(driver)
    begins = {event.txn: event.site for event in _of(cluster, EventKind.TXN_BEGIN)}
    submits = _of(cluster, EventKind.TXN_SUBMIT)
    sent = messages(cluster, MessageType.MGR_SUBMIT_TXN)
    assert len(sent) >= 16
    assert sorted(event.txn for event in submits) == sorted(e.txn for e in sent)
    # A submission that bounced off a just-failed coordinator never begins.
    assert begins and set(begins) <= {event.txn for event in submits}
    for event in submits:
        assert event.site == sent[0].site and event.args["seq"] >= 1
        if event.txn in begins:
            assert event.args["coordinator"] == begins[event.txn]
