"""The session-number guard: status changes detected mid-transaction."""

import pytest

from repro.net.message import MessageType
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.system.scenario import FixedSite, Scenario
from repro.txn.operations import OpKind, Operation
from repro.txn.transaction import AbortReason
from repro.workload.base import WorkloadGenerator

from conftest import messages


class OneWrite(WorkloadGenerator):
    def generate(self, txn_seq, rng):
        return [Operation(OpKind.WRITE, 1)]


def build():
    config = SystemConfig(db_size=4, num_sites=3, max_txn_size=2, seed=2)
    cluster = Cluster(config)
    cluster.obs.enabled = True
    scenario = Scenario(workload=OneWrite(), txn_count=1, policy=FixedSite(0))
    return cluster, scenario


def test_stale_coordinator_session_is_nacked():
    """A participant that perceives a newer session for the coordinator
    refuses phase one; the transaction aborts with SESSION_CHANGED."""
    cluster, scenario = build()
    # Site 1 believes coordinator 0 has already moved to session 5 (e.g. a
    # recovery announcement the ghost coordinator predates).
    cluster.site(1).nsv.mark_up(0, session=5)
    metrics = cluster.run(scenario)
    txn = metrics.txns[0]
    assert not txn.committed
    assert txn.abort_reason is AbortReason.SESSION_CHANGED
    assert len(messages(cluster, MessageType.VOTE_NACK)) == 1
    # Nothing was committed anywhere.
    for site in cluster.sites:
        assert site.db.version(1) == 0


def test_newer_coordinator_session_is_adopted():
    """A participant behind on announcements learns the new session from
    the phase-one message and proceeds normally."""
    cluster, scenario = build()
    # Coordinator 0 is actually on session 3; participant 1 still thinks 1.
    cluster.site(0).nsv.mark_up(0, session=3)
    metrics = cluster.run(scenario)
    assert metrics.txns[0].committed
    assert cluster.site(1).nsv.session_of(0) == 3
    assert cluster.site(2).nsv.session_of(0) == 3


def test_matching_sessions_commit_normally():
    cluster, scenario = build()
    metrics = cluster.run(scenario)
    assert metrics.txns[0].committed
    assert messages(cluster, MessageType.VOTE_NACK) == []


def test_nack_discards_other_participants_staging():
    """When one participant NACKs, the other (which staged) gets an ABORT
    and discards its buffered updates."""
    cluster, scenario = build()
    cluster.site(1).nsv.mark_up(0, session=5)
    cluster.run(scenario)
    assert cluster.site(2).participant.staged == {}
    assert cluster.site(2).db.signature()[1] == ()  # nothing staged
    assert cluster.audit_consistency() == []
