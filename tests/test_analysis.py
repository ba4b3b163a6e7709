"""Protocol message anatomy, counted from ``cluster.obs``.

The paper reasons about costs in units of inter-site communications (9 ms
each), so the protocol's message complexity is checked analytically: a
committed transaction with ``p`` participants costs ``4p`` protocol
messages, a copier adds ``2 + peers`` more.
"""

from collections import Counter
from statistics import mean

import pytest

from repro.net.message import MessageType
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.system.scenario import FailSite, FixedSite, RecoverSite, Scenario
from repro.txn.operations import OpKind, Operation
from repro.workload.base import WorkloadGenerator

from conftest import make_scenario, messages, run_cluster

# Message kinds that belong to transaction processing (not management).
PROTOCOL_KINDS = {
    mtype.value
    for mtype in (
        MessageType.VOTE_REQ,
        MessageType.VOTE_ACK,
        MessageType.VOTE_NACK,
        MessageType.COMMIT,
        MessageType.COMMIT_ACK,
        MessageType.ABORT,
        MessageType.COPY_REQ,
        MessageType.COPY_RESP,
        MessageType.COPY_DENIED,
        MessageType.CLEAR_FAILLOCKS,
    )
}


def message_anatomy(cluster, txn_id):
    """``{message kind: count}`` for one transaction's protocol messages."""
    sent = Counter(event.args["mtype"] for event in messages(cluster, txn=txn_id))
    return {kind: count for kind, count in sent.items() if kind in PROTOCOL_KINDS}


def txn_message_count(cluster, txn_id):
    return sum(message_anatomy(cluster, txn_id).values())


def protocol_summary(cluster):
    """Protocol messages per transaction, by transaction class."""
    classes = {"committed, no copier": [], "committed, with copier": [], "aborted": []}
    for record in cluster.metrics.txns:
        total = txn_message_count(cluster, record.txn_id)
        if not record.committed:
            classes["aborted"].append(total)
        elif record.copiers_requested:
            classes["committed, with copier"].append(total)
        else:
            classes["committed, no copier"].append(total)
    return classes


@pytest.fixture(scope="module")
def run():
    config = SystemConfig(db_size=10, num_sites=3, max_txn_size=4, seed=8)
    scenario = make_scenario(config, 25)
    scenario.add_action(5, FailSite(2))
    scenario.add_action(15, RecoverSite(2))
    return run_cluster(config, scenario, obs=True)


def test_message_anatomy_of_clean_write():
    """A single-write transaction over 3 sites: 2 VOTE_REQ + 2 VOTE_ACK +
    2 COMMIT + 2 COMMIT_ACK = 8 protocol messages."""

    class OneWrite(WorkloadGenerator):
        def generate(self, txn_seq, rng):
            return [Operation(OpKind.WRITE, 1)]

    config = SystemConfig(db_size=4, num_sites=3, max_txn_size=2, seed=8)
    cluster = Cluster(config)
    cluster.obs.enabled = True
    cluster.run(Scenario(workload=OneWrite(), txn_count=1, policy=FixedSite(0)))
    assert message_anatomy(cluster, 1) == {
        "vote_req": 2,
        "vote_ack": 2,
        "commit": 2,
        "commit_ack": 2,
    }
    assert txn_message_count(cluster, 1) == 8


def test_read_only_txn_has_no_protocol_messages():
    class OneRead(WorkloadGenerator):
        def generate(self, txn_seq, rng):
            return [Operation(OpKind.READ, 1)]

    config = SystemConfig(db_size=4, num_sites=3, max_txn_size=2, seed=8)
    cluster = Cluster(config)
    cluster.obs.enabled = True
    cluster.run(Scenario(workload=OneRead(), txn_count=1, policy=FixedSite(0)))
    assert txn_message_count(cluster, 1) == 0


def test_protocol_summary_classes(run):
    clean = protocol_summary(run)["committed, no copier"]
    assert any(clean)
    # 4p each: p is 2 with every site up, 1 while site 2 is down, and 0
    # for a transaction that wrote nothing.
    assert set(clean) <= {0, 4, 8}


def test_copier_txns_cost_more_messages():
    """Compare anatomy of copier vs non-copier committed transactions in a
    recovery run that generates at least one copier."""
    config = SystemConfig(db_size=6, num_sites=3, max_txn_size=4, seed=12)
    scenario = make_scenario(config, 60)
    scenario.add_action(2, FailSite(0))
    scenario.add_action(20, RecoverSite(0))
    from repro.system.scenario import Weighted

    scenario.policy = Weighted({0: 1.0, 1: 0.01, 2: 0.01})
    cluster = run_cluster(config, scenario, obs=True)
    summary = protocol_summary(cluster)
    with_copier = summary["committed, with copier"]
    without = summary["committed, no copier"]
    assert with_copier
    assert mean(with_copier) > mean(without)
