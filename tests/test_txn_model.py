"""Operations, transaction lifecycle, and the 2PC coordinator record."""

import dataclasses
import random

import pytest

from repro.check.fingerprint import message_signature
from repro.errors import TransactionError, WorkloadError
from repro.net.endpoint import HandlerContext
from repro.net.message import Message, MessageType
from repro.site.coordinator import CommitPhase, CoordinatorState
from repro.soak import SoakConfig, engine
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.txn.operations import OpKind, Operation, random_transaction_ops
from repro.txn.transaction import AbortReason, Transaction, TxnStatus


def txn(ops=None, txn_id=1):
    if ops is None:
        ops = [Operation(OpKind.READ, 0), Operation(OpKind.WRITE, 1)]
    return Transaction(txn_id=txn_id, ops=ops)


# -- operations ----------------------------------------------------------------


def test_operation_is_an_immutable_value():
    op = Operation(OpKind.WRITE, 7)
    assert op == Operation(kind=OpKind.WRITE, item_id=7) == (OpKind.WRITE, 7)
    assert hash(op) == hash(Operation(OpKind.WRITE, 7))
    assert op != Operation(OpKind.READ, 7) and op != Operation(OpKind.WRITE, 8)
    assert len({op, Operation(OpKind.WRITE, 7), Operation(OpKind.READ, 5)}) == 2
    assert (repr(op), repr(Operation(OpKind.READ, 5))) == ("w(7)", "r(5)")
    with pytest.raises(AttributeError):
        op.item_id = 8


def test_submissions_ship_operations_with_the_tuple_encodings_signature(monkeypatch):
    """Every ``MGR_SUBMIT_TXN`` of a short soak carries the workload's
    operations, and its fingerprint text is the one the ``(kind, item)``
    tuple encoding gave, so the pinned explorer fingerprints hold."""
    submitted: list[Message] = []

    class ProbedCluster(Cluster):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.network.delivery_probes.append(
                lambda m: m.mtype is MessageType.MGR_SUBMIT_TXN and submitted.append(m)
            )

    monkeypatch.setattr(engine, "Cluster", ProbedCluster)
    engine.run_soak(SoakConfig(seed=3, txns=120, rate_tps=40.0))
    assert len(submitted) >= 100
    for msg in submitted:
        ops = msg.payload["ops"]
        assert ops and all(type(op) is Operation for op in ops)
        tuples = [(op.kind, op.item_id) for op in ops]
        encoded = dataclasses.replace(msg, payload={**msg.payload, "ops": tuples})
        assert message_signature(msg) == message_signature(encoded)


def test_random_ops_respect_bounds():
    rng = random.Random(5)
    for _ in range(200):
        ops = random_transaction_ops(rng, list(range(10)), max_ops=5)
        assert 1 <= len(ops) <= 5
        assert all(0 <= op.item_id < 10 for op in ops)


def test_random_ops_equal_read_write_probability():
    rng = random.Random(5)
    kinds = []
    for _ in range(500):
        kinds += [op.kind for op in random_transaction_ops(rng, [0], max_ops=3)]
    writes = sum(1 for k in kinds if k is OpKind.WRITE)
    assert 0.4 < writes / len(kinds) < 0.6


def test_random_ops_write_probability_extremes():
    rng = random.Random(5)
    all_reads = random_transaction_ops(rng, [0, 1], 10, write_probability=0.0)
    assert all(op.kind is OpKind.READ for op in all_reads)
    all_writes = random_transaction_ops(rng, [0, 1], 10, write_probability=1.0)
    assert all(op.kind is OpKind.WRITE for op in all_writes)


def test_random_ops_validation():
    rng = random.Random(5)
    with pytest.raises(WorkloadError):
        random_transaction_ops(rng, [], 5)
    with pytest.raises(WorkloadError):
        random_transaction_ops(rng, [0], 0)
    with pytest.raises(WorkloadError):
        random_transaction_ops(rng, [0], 5, write_probability=1.5)


# -- transaction ---------------------------------------------------------------------


def test_distinct_items_first_touch_order():
    t = txn(
        [
            Operation(OpKind.WRITE, 3),
            Operation(OpKind.READ, 1),
            Operation(OpKind.WRITE, 3),
            Operation(OpKind.WRITE, 0),
            Operation(OpKind.READ, 1),
        ]
    )
    assert t.write_items == [3, 0]
    assert t.read_items == [1]
    assert t.size == 5


@pytest.mark.parametrize("seed", range(20))
def test_read_and_write_items_follow_their_definition(seed):
    """Distinct items, in first-touch order; an item both read and
    written is in both lists; no operations, no items."""
    rng = random.Random(seed)
    ops = random_transaction_ops(rng, list(range(6)), max_ops=12) if seed else []
    t = txn(ops)
    for kind, items in ((OpKind.READ, t.read_items), (OpKind.WRITE, t.write_items)):
        touched = [op.item_id for op in ops if op.kind is kind]
        assert items == sorted(set(touched), key=touched.index)


def test_commit_transition():
    t = txn()
    t.submitted_at = 1.0
    t.mark_committed(5.0)
    assert t.status is TxnStatus.COMMITTED
    assert t.is_done
    assert t.finished_at - t.submitted_at == 4.0


def test_abort_transition():
    t = txn()
    t.mark_aborted(AbortReason.COPY_UNAVAILABLE, 3.0)
    assert t.status is TxnStatus.ABORTED
    assert t.abort_reason is AbortReason.COPY_UNAVAILABLE


def test_double_finish_rejected():
    t = txn()
    t.mark_committed(1.0)
    with pytest.raises(TransactionError):
        t.mark_aborted(AbortReason.NONE, 2.0)
    with pytest.raises(TransactionError):
        t.mark_committed(2.0)



# -- 2PC coordinator record ---------------------------------------------------------
#
# The coordinator's per-transaction record moves through its phases only on
# the inputs its phase table declares.  An input in any other phase is a
# leftover of an earlier round: it is ignored, and nothing is sent.


@pytest.fixture
def coordinator_site():
    return Cluster(SystemConfig(seed=1, num_sites=3, db_size=8)).sites[0]


def voting(site, participants):
    """Put transaction 1 (read item 0, write item 1) in phase one."""
    state = CoordinatorState(
        txn=txn(),
        phase=CommitPhase.VOTING,
        participants=list(participants),
        pending_votes=set(participants),
        updates=[(1, 100_001, -1)],
        recipients={1: [site.site_id, *participants]},
    )
    site.coordinator.active[1] = state
    return state


def deliver(site, mtype, src):
    """Hand ``site`` one message about transaction 1; return the activation
    context, whose outbox holds what the handler sent."""
    ctx = HandlerContext(site.network, site)
    site.handle(ctx, Message(src, site.site_id, mtype, {}, 1))
    return ctx


def test_vote_then_commit_flow(coordinator_site):
    site = coordinator_site
    state = voting(site, [1, 2])
    assert deliver(site, MessageType.VOTE_ACK, 1).outbox == []
    assert state.phase is CommitPhase.VOTING
    assert state.pending_votes == {2}
    ctx = deliver(site, MessageType.VOTE_ACK, 2)
    assert state.phase is CommitPhase.COMMITTING
    assert state.pending_commit_acks == {1, 2}
    assert [(m.mtype, m.dst) for m in ctx.outbox] == [
        (MessageType.COMMIT, 1),
        (MessageType.COMMIT, 2),
    ]
    deliver(site, MessageType.COMMIT_ACK, 2)
    assert state.phase is CommitPhase.COMMITTING
    deliver(site, MessageType.COMMIT_ACK, 1)
    assert state.phase is CommitPhase.DONE
    assert state.txn.status is TxnStatus.COMMITTED
    assert 1 not in site.coordinator.active
    assert site.coordinator.decisions.get(1) == ("committed", state.commit_version)


def test_commit_before_all_votes_rejected(coordinator_site):
    """A COMMIT_ACK while votes are still pending is ignored."""
    site = coordinator_site
    state = voting(site, [1, 2])
    deliver(site, MessageType.VOTE_ACK, 1)
    assert deliver(site, MessageType.COMMIT_ACK, 2).outbox == []
    assert state.phase is CommitPhase.VOTING
    assert state.pending_votes == {2}
    assert state.pending_commit_acks == set()


def test_vote_out_of_phase_rejected(coordinator_site):
    """A VOTE_ACK before phase one, or a duplicate after it, is ignored."""
    site = coordinator_site
    state = CoordinatorState(txn=txn())
    site.coordinator.active[1] = state
    assert deliver(site, MessageType.VOTE_ACK, 1).outbox == []
    assert state.phase is CommitPhase.EXECUTING
    state = voting(site, [1])
    deliver(site, MessageType.VOTE_ACK, 1)
    assert state.phase is CommitPhase.COMMITTING
    assert deliver(site, MessageType.VOTE_ACK, 1).outbox == []
    assert state.phase is CommitPhase.COMMITTING
    assert state.pending_commit_acks == {1}


def test_drop_participant_unblocks(coordinator_site):
    site = coordinator_site
    state = voting(site, [1, 2])
    deliver(site, MessageType.VOTE_ACK, 1)
    state.drop_participant(2)
    assert not state.pending_votes
    assert state.participants == [1]


def test_empty_participant_set(coordinator_site):
    """A read-only transaction has no participants: it commits locally,
    with no phase-one message and no commit version."""
    site = coordinator_site
    ctx = HandlerContext(site.network, site)
    read_only = txn(ops=[Operation(OpKind.READ, 0)], txn_id=7)
    site.coordinator.begin(ctx, read_only)
    assert ctx.outbox == []
    assert read_only.status is TxnStatus.COMMITTED
    assert site.coordinator.active == {}
    assert site.coordinator.decisions.get(7) == ("committed", -1)
