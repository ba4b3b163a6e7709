"""Failures injected *during* the commit protocol (Appendix A edge cases).

The managing site only acts between transactions, so these tests kill
sites directly via scheduler events timed to land between specific
protocol messages — the cases Appendix A spells out:

* participant dies before acking phase one  -> transaction aborts;
* participant dies after acking phase one   -> commit completes among the
  survivors and a type-2 control transaction announces the failure.
"""

import pytest

from repro.core.sessions import SiteState
from repro.net.message import MessageType
from repro.system.cluster import Cluster
from repro.system.config import FailureDetection, SystemConfig
from repro.system.scenario import FixedSite, Scenario
from repro.txn.operations import OpKind, Operation
from repro.workload.base import WorkloadGenerator

from conftest import FREE_COSTS, SETTLED, messages


class OneWrite(WorkloadGenerator):
    def generate(self, txn_seq, rng):
        return [Operation(OpKind.WRITE, 1)]


def build(seed=1):
    config = SystemConfig(
        db_size=5,
        num_sites=3,
        max_txn_size=2,
        seed=seed,
        detection=FailureDetection.TIMEOUT,
    )
    cluster = Cluster(config)
    cluster.obs.enabled = True
    scenario = Scenario(workload=OneWrite(), txn_count=3, policy=FixedSite(0))
    return cluster, scenario


def kill_when(cluster, site_id, mtype, nth=1):
    """Mark ``site_id`` dead the instant the ``nth`` ``mtype`` message has
    been delivered or dropped (polled every simulated 0.1 ms)."""
    site = cluster.site(site_id)

    def poll():
        if len(messages(cluster, mtype, kinds=SETTLED)) >= nth:
            site.alive = False
            return
        cluster.scheduler.schedule(0.1, poll)

    cluster.scheduler.schedule(0.0, poll)


def test_participant_dies_before_vote_ack():
    """Site 2 dies as phase one starts: its VOTE_REQ bounces, the
    transaction aborts, and a type-2 control transaction runs."""
    cluster, scenario = build()
    # Kill site 2 while the coordinator is still processing the submitted
    # transaction (after MGR_SUBMIT delivery, before phase one leaves).
    kill_when(cluster, 2, MessageType.MGR_SUBMIT_TXN, nth=1)
    metrics = cluster.run(scenario)
    txn1 = metrics.txns[0]
    assert not txn1.committed
    assert txn1.abort_reason.value == "participant_failed"
    # Survivors learned via type 2 and later transactions commit.
    assert metrics.counters.get("control_type2") >= 1
    assert metrics.txns[1].committed and metrics.txns[2].committed
    nsv = cluster.site(0).nsv
    assert [s for s in nsv.site_ids if nsv.state_of(s) is SiteState.DOWN] == [2]


def test_participant_dies_after_vote_ack():
    """Site 2 dies after acking phase one: Appendix A commits anyway among
    the survivors ("if commit ack not received ... run control type 2"
    but the data items still commit)."""
    cluster, scenario = build()
    # Both participants ack (2 VOTE_ACKs), then kill site 2 before COMMIT.
    kill_when(cluster, 2, MessageType.VOTE_ACK, nth=2)
    metrics = cluster.run(scenario)
    txn1 = metrics.txns[0]
    assert txn1.committed
    # The write reached the survivor and the coordinator, not the corpse.
    assert cluster.site(0).db.version(1) >= 1
    assert cluster.site(1).db.version(1) >= 1
    assert cluster.site(2).db.version(1) == 0
    # The corpse's copy is fail-locked.
    assert cluster.site(0).faillocks.is_locked(1, 2)
    assert metrics.counters.get("control_type2") >= 1


def test_all_participants_die_coordinator_commits_alone():
    cluster, scenario = build()
    kill_when(cluster, 1, MessageType.VOTE_ACK, nth=2)
    kill_when(cluster, 2, MessageType.VOTE_ACK, nth=2)
    metrics = cluster.run(scenario)
    assert metrics.txns[0].committed
    assert cluster.site(0).db.version(1) >= 1
    assert cluster.site(0).faillocks.is_locked(1, 1)
    assert cluster.site(0).faillocks.is_locked(1, 2)


def test_consistency_after_midflight_failure():
    cluster, scenario = build()
    kill_when(cluster, 2, MessageType.VOTE_ACK, nth=2)
    cluster.run(scenario)
    assert cluster.audit_consistency() == []


def test_timeout_mode_regression_stale_views():
    """Regression for two timeout-detection bugs hypothesis found:

    1. A participant with a stale session vector must not re-clear a down
       site's fail-lock bits at commit (fixed by recipient-based
       maintenance).
    2. A recovering site must not skip type-1 responder candidates its own
       stale vector marks down — they may have recovered meanwhile (fixed
       by bounce-driven candidate advancement).
    """
    from repro.system.config import SystemConfig
    from repro.system.cluster import Cluster
    from repro.system.scenario import RecoverSite, Scenario
    from repro.system.scenario import FailSite as FS
    from repro.workload.uniform import UniformWorkload

    config = SystemConfig(
        db_size=8, num_sites=3, max_txn_size=3, seed=0,
        costs=FREE_COSTS, detection=FailureDetection.TIMEOUT,
    )
    scenario = Scenario(
        workload=UniformWorkload(config.item_ids, config.max_txn_size),
        txn_count=14,
    )
    for before, action in [
        (2, FS(2)), (3, FS(0)), (4, RecoverSite(2)),
        (5, FS(1)), (7, RecoverSite(0)), (8, RecoverSite(1)),
    ]:
        scenario.add_action(before, action)
    cluster = Cluster(config)
    cluster.run(scenario)
    assert cluster.audit_consistency() == []
