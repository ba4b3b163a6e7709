"""Cluster integration: copier transactions and clear-fail-locks notices."""

import pytest

from repro.net.message import MessageType
from repro.system.cluster import Cluster
from repro.system.config import ClearNoticeMode, SystemConfig
from repro.system.scenario import FailSite, RecoverSite, Scenario, Weighted
from repro.txn.operations import OpKind, Operation
from repro.workload.base import WorkloadGenerator

from conftest import make_scenario, messages, run_cluster


class Scripted(WorkloadGenerator):
    """Plays back a fixed list of op lists, then read-only filler."""

    def __init__(self, scripts: dict[int, list[Operation]], filler_item: int = 0):
        self.scripts = scripts
        self.filler_item = filler_item

    def generate(self, txn_seq, rng):
        if txn_seq in self.scripts:
            return self.scripts[txn_seq]
        return [Operation(OpKind.READ, self.filler_item)]


def copier_setup(mode=ClearNoticeMode.SPECIAL_TXN):
    """3 sites; site 2 misses a write of item 5, recovers, then coordinates
    a transaction that reads item 5 — forcing exactly one copier."""
    config = SystemConfig(
        db_size=10, num_sites=3, max_txn_size=4, seed=5, clear_notice_mode=mode
    )
    scripts = {
        2: [Operation(OpKind.WRITE, 5)],            # while site 2 is down
        4: [Operation(OpKind.READ, 5)],             # at recovered site 2
    }
    scenario = Scenario(
        workload=Scripted(scripts),
        txn_count=5,
        policy=ScriptedPolicy({4: 2, 5: 2}),
    )
    scenario.add_action(1, FailSite(2))
    scenario.add_action(4, RecoverSite(2))
    cluster = Cluster(config)
    cluster.obs.enabled = True
    metrics = cluster.run(scenario)
    return cluster, metrics


class ScriptedPolicy:
    """Submit transaction ``seq`` to ``sites[seq]``, default site 0."""

    def __init__(self, sites: dict[int, int]):
        self.sites = sites

    def choose(self, seq, up_sites, rng):
        want = self.sites.get(seq, 0)
        return want if want in up_sites else up_sites[0]


def test_copier_refreshes_stale_read():
    cluster, metrics = copier_setup()
    assert metrics.counters["copiers"] == 1
    assert metrics.counters["commits"] == 5
    # The read saw the refreshed value, and the copy is installed locally.
    assert cluster.site(2).db.version(5) == 1  # one committed write
    writes = [r for r in cluster.site(2).db.log.records if r.item_id == 5]
    assert writes[-1].txn_id == -1  # via copier
    assert cluster.faillock_counts()[2] == 0


def test_copier_messages_flow():
    cluster, _metrics = copier_setup()
    assert len(messages(cluster, MessageType.COPY_REQ)) == 1
    assert len(messages(cluster, MessageType.COPY_RESP)) == 1
    # Special transactions to the two peers.
    assert len(messages(cluster, MessageType.CLEAR_FAILLOCKS)) == 2


def test_copier_clears_faillock_everywhere():
    cluster, _metrics = copier_setup()
    for site in cluster.sites:
        assert not site.faillocks.is_locked(5, 2)


def test_embedded_mode_sends_no_special_txn():
    """Embedded clears ride the next phase-1 this site coordinates."""
    config = SystemConfig(
        db_size=10, num_sites=3, max_txn_size=4, seed=5,
        clear_notice_mode=ClearNoticeMode.EMBEDDED,
    )
    scripts = {
        2: [Operation(OpKind.WRITE, 5)],                        # site 2 down
        4: [Operation(OpKind.READ, 5)],                         # copier at 2
        5: [Operation(OpKind.WRITE, 1)],                        # carries clears
    }
    scenario = Scenario(
        workload=Scripted(scripts),
        txn_count=5,
        policy=ScriptedPolicy({4: 2, 5: 2}),
    )
    scenario.add_action(1, FailSite(2))
    scenario.add_action(4, RecoverSite(2))
    cluster = Cluster(config)
    cluster.obs.enabled = True
    metrics = cluster.run(scenario)
    assert messages(cluster, MessageType.CLEAR_FAILLOCKS) == []
    assert metrics.counters["copiers"] == 1
    # After txn 5's phase one, the clears have propagated everywhere.
    for site in cluster.sites:
        assert not site.faillocks.is_locked(5, 2)


def test_copier_recorded_in_metrics():
    _cluster, metrics = copier_setup()
    assert len(metrics.copiers) == 1
    record = metrics.copiers[0]
    assert record.requester == 2
    assert record.items == 1
    assert record.finished_at > record.started_at
    txn = next(t for t in metrics.txns if t.copiers_requested == 1)
    assert txn.seq == 4
    assert txn.clear_notices_sent == 2


def test_copier_denied_aborts():
    """If the copier source itself is stale, the transaction aborts."""
    config = SystemConfig(db_size=6, num_sites=2, max_txn_size=3, seed=5)
    scripts = {
        2: [Operation(OpKind.WRITE, 3)],   # site 1 writes while 0 down
        4: [Operation(OpKind.READ, 3)],    # site 0 reads after recovery...
    }
    scenario = Scenario(
        workload=Scripted(scripts),
        txn_count=4,
        policy=ScriptedPolicy({4: 0}),
    )
    scenario.add_action(1, FailSite(0))
    scenario.add_action(4, RecoverSite(0))
    # ... but before txn 4 we also fail site 1, the only good copy.
    scenario.add_action(4, FailSite(1))
    cluster = Cluster(config)
    metrics = cluster.run(scenario)
    aborted = metrics.aborted
    assert len(aborted) == 1
    assert aborted[0].abort_reason.value == "copy_unavailable"


def test_batch_copiers_under_two_step_policy():
    from repro.core.recovery import RecoveryPolicy

    config = SystemConfig(
        db_size=10,
        num_sites=2,
        max_txn_size=4,
        seed=5,
        recovery_policy=RecoveryPolicy.TWO_STEP,
        batch_threshold=1.0,   # batch immediately on recovery
        batch_size=3,
    )
    scenario = make_scenario(config, 30)
    scenario.add_action(1, FailSite(0))
    scenario.add_action(21, RecoverSite(0))
    cluster = run_cluster(config, scenario)
    metrics = cluster.metrics
    assert metrics.counters.get("batch_copiers") > 0
    assert cluster.faillock_counts()[0] == 0
    assert cluster.audit_consistency() == []


def test_batch_copier_source_failure_does_not_stall_recovery():
    """Two-step recovery keeps going when a batch-copier source dies."""
    from repro.core.recovery import RecoveryPolicy
    from repro.system.config import FailureDetection

    config = SystemConfig(
        db_size=10,
        num_sites=3,
        max_txn_size=4,
        seed=6,
        detection=FailureDetection.TIMEOUT,
        recovery_policy=RecoveryPolicy.TWO_STEP,
        batch_threshold=1.0,
        batch_size=2,
    )
    from repro.workload.uniform import UniformWorkload

    cluster = Cluster(config)
    scenario = Scenario(
        workload=UniformWorkload(config.item_ids, config.max_txn_size),
        txn_count=40,
        policy=ScriptedPolicy({}),  # everything at site 0
    )
    scenario.add_action(1, FailSite(2))
    scenario.add_action(15, RecoverSite(2))
    # The batch copiers run from site 2; fail one potential source (site 1)
    # right after recovery begins so an in-flight batch request can bounce.
    scenario.add_action(16, FailSite(1))
    metrics = cluster.run(scenario)
    # The run completes (no stall) and site 2 still drains its fail-locks
    # from the surviving source.
    assert metrics.counters["commits"] > 0
    assert cluster.site(2).alive
