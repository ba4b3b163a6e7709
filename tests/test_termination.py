"""Timeout-driven 2PC termination: vote timeouts, COMMIT retransmission,
and cooperative resolution of blocked transactions.

These are the cases the bare protocol cannot survive — a lost phase-1
request, a lost commit indication, a coordinator that dies between
sending COMMIT and everyone hearing it — exercised with targeted silent
drops and mid-protocol crashes rather than randomized chaos.
"""

import pytest

from repro.errors import SimulationError
from repro.net.message import MessageType
from repro.net.network import MessageFate
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.system.scenario import FixedSite, Scenario
from repro.txn.operations import OpKind, Operation
from repro.workload.base import WorkloadGenerator

from conftest import SETTLED, messages


class OneWrite(WorkloadGenerator):
    def generate(self, txn_seq, rng):
        return [Operation(OpKind.WRITE, 1)]


class DropMatching:
    """Interposer that silently drops messages matching a predicate."""

    def __init__(self, pred, limit=None):
        self.pred = pred
        self.limit = limit
        self.dropped = 0

    def intercept(self, msg):
        if self.pred(msg) and (self.limit is None or self.dropped < self.limit):
            self.dropped += 1
            return MessageFate(drop=True, silent=True)
        return None


def build(txns=3, seed=1):
    """Three sites, timeouts on (fast, test-sized), transport-level
    retransmission OFF so each test controls loss outcomes exactly."""
    config = SystemConfig(
        db_size=5,
        num_sites=3,
        max_txn_size=2,
        seed=seed,
        wire_latency_ms=1.0,
        timeouts_enabled=True,
        vote_timeout_ms=50.0,
        commit_retry_ms=50.0,
        status_inquiry_ms=120.0,
    )
    cluster = Cluster(config)
    cluster.obs.enabled = True
    scenario = Scenario(workload=OneWrite(), txn_count=txns, policy=FixedSite(0))
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


# -- coordinator-side timeouts ------------------------------------------------


def test_lost_vote_req_times_out_and_aborts() -> None:
    """A silently lost phase-1 request no longer wedges the coordinator:
    the vote timeout aborts the transaction, and — because a timeout is
    not a failure verdict — the silent site participates normally in the
    very next transaction."""
    cluster, scenario = build()
    cluster.network.interposer = DropMatching(
        lambda m: m.mtype is MessageType.VOTE_REQ and m.dst == 2, limit=1
    )
    metrics = cluster.run(scenario)
    txn1 = metrics.txns[0]
    assert not txn1.committed
    assert txn1.abort_reason.value == "participant_timeout"
    assert metrics.counters.get("timeout_vote_aborts") == 1
    # No site was declared down: no type-2 control transaction ran and
    # later transactions commit at full replication, site 2 included.
    assert metrics.counters.get("control_type2") == 0
    assert metrics.txns[1].committed and metrics.txns[2].committed
    assert cluster.site(2).db.version(1) == cluster.site(0).db.version(1)
    assert cluster.audit_consistency() == []


def test_lost_commit_is_retransmitted_until_acked() -> None:
    """A silently lost COMMIT is re-sent on the commit-retry timer; the
    participant applies it on the retry and nobody is marked failed."""
    cluster, scenario = build()
    cluster.network.interposer = DropMatching(
        lambda m: m.mtype is MessageType.COMMIT and m.dst == 2, limit=1
    )
    metrics = cluster.run(scenario)
    assert all(t.committed for t in metrics.txns)
    assert metrics.counters.get("commit_retransmits") >= 1
    assert cluster.site(2).db.version(1) == cluster.site(0).db.version(1)
    assert not cluster.site(0).faillocks.is_locked(1, 2)
    assert metrics.counters.get("control_type2") == 0
    assert cluster.audit_consistency() == []


# -- cooperative termination (the blocked-participant protocol) ---------------


def test_survivors_converge_when_coordinator_dies_mid_commit() -> None:
    """The satellite scenario: the coordinator crashes after its COMMIT
    reached a strict subset of the participants (site 1 yes, site 2 no).
    Site 2 is blocked holding staged updates; the status-inquiry path asks
    the dead coordinator (bounce), then site 1, which answers "committed"
    — both survivors end with the update applied.  No atomicity
    violation: nobody aborts what another site applied."""
    cluster, scenario = build(txns=1)
    cluster.network.interposer = DropMatching(
        lambda m: m.mtype is MessageType.COMMIT and m.dst == 2, limit=1
    )
    # Both COMMIT records (the drop to 2 and the delivery to 1) are in the
    # trace before any COMMIT_ACK returns — the coordinator dies there,
    # before its own local commit and before any retry timer fires.
    kill_when(cluster, 0, MessageType.COMMIT, nth=2)
    with pytest.raises(SimulationError):
        cluster.run(scenario)  # the drive loop never hears TXN_DONE
    assert cluster.metrics.counters.get("status_inquiries") >= 1
    assert cluster.metrics.counters.get("termination_committed") == 1
    v1 = cluster.site(1).db.version(1)
    assert v1 >= 1, "site 1 never applied the commit it was sent"
    assert cluster.site(2).db.version(1) == v1
    assert cluster.site(2).db.get(1).value == cluster.site(1).db.get(1).value
    assert cluster.metrics.counters.get("termination_presumed_abort") == 0


def test_presumed_abort_when_no_commit_evidence_survives() -> None:
    """The coordinator crashes after *every* COMMIT was lost: no copy of
    the decision exists anywhere.  Both blocked participants exhaust
    their candidates (dead coordinator, then each other — both answer
    "unknown" for merely-staged state) and presume abort.  Safe: the
    coordinator commits locally only after all COMMIT_ACKs, so it cannot
    have committed either."""
    cluster, scenario = build(txns=1)
    cluster.network.interposer = DropMatching(
        lambda m: m.mtype is MessageType.COMMIT
    )
    kill_when(cluster, 0, MessageType.COMMIT, nth=2)
    with pytest.raises(SimulationError):
        cluster.run(scenario)
    # The first participant to exhaust its candidates presumes abort; the
    # second may instead *learn* "aborted" from the first (a presumed
    # abort is a decision, and decisions propagate).  Either way both
    # reach abort and none commits.
    presumed = cluster.metrics.counters.get("termination_presumed_abort")
    learned = cluster.metrics.counters.get("termination_aborted")
    assert presumed >= 1
    assert presumed + learned == 2
    assert cluster.metrics.counters.get("termination_committed") == 0
    # Nobody applied anything; the database is untouched everywhere.
    for site_id in (0, 1, 2):
        assert cluster.site(site_id).db.version(1) == 0
    assert cluster.audit_consistency() == []


def test_status_inquiry_bounce_advances_to_next_candidate() -> None:
    """A TXN_STATUS_REQ that bounces off a dead site is treated exactly
    like an "unknown" answer — the inquiry moves on rather than marking
    anyone failed or giving up."""
    cluster, scenario = build(txns=1)
    cluster.network.interposer = DropMatching(
        lambda m: m.mtype is MessageType.COMMIT and m.dst == 2, limit=1
    )
    kill_when(cluster, 0, MessageType.COMMIT, nth=2)
    with pytest.raises(SimulationError):
        cluster.run(scenario)
    bounced = len(messages(cluster, MessageType.TXN_STATUS_REQ))
    assert bounced >= 2, "expected an inquiry to the dead coordinator too"
    assert cluster.metrics.counters.get("termination_committed") == 1
