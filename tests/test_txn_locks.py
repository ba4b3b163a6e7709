"""LockManager: strict 2PL grant/queue/release semantics."""

import pytest

from repro.txn.locks import LockManager, LockMode

from conftest import lock_table


@pytest.fixture
def lm() -> LockManager:
    return LockManager()


S, X = LockMode.SHARED, LockMode.EXCLUSIVE


def test_compatibility_matrix():
    # Only S+S coexist: one manager per (held, asked) pair.
    for held in (S, X):
        for asked in (S, X):
            lm = LockManager()
            lm.request(1, 0, held)
            assert lm.request(2, 0, asked).granted is (held is S and asked is S)


def test_shared_locks_coexist(lm):
    assert lm.request(1, 0, S).granted
    assert lm.request(2, 0, S).granted
    assert lock_table(lm) == {0: ({1: "S", 2: "S"}, [])}


def test_held_mode_reads_without_copy(lm):
    lm.request(1, 0, S)
    lm.request(2, 1, X)
    lm.request(1, 1, S)  # queued behind 2, not held
    assert lm.held_mode(1, 0) is S
    assert lm.held_mode(2, 1) is X
    assert lm.held_mode(1, 1) is None
    assert lm.held_mode(1, 99) is None  # no entry for the item, none made
    assert lm.signature() == ((0, ((1, "S"),), ()), (1, ((2, "X"),), ((1, "S"),)))


def test_exclusive_blocks_shared(lm):
    assert lm.request(1, 0, X).granted
    grant = lm.request(2, 0, S)
    assert not grant.granted
    assert grant.waiting_for == (1,)


def test_rerequest_is_idempotent(lm):
    lm.request(1, 0, S)
    assert lm.request(1, 0, S).granted
    assert lock_table(lm) == {0: ({1: "S"}, [])}


def test_x_holder_may_read(lm):
    lm.request(1, 0, X)
    assert lm.request(1, 0, S).granted


def test_upgrade_sole_holder(lm):
    lm.request(1, 0, S)
    assert lm.request(1, 0, X).granted
    assert lm.held_mode(1, 0) is X


def test_upgrade_with_other_readers_waits(lm):
    lm.request(1, 0, S)
    lm.request(2, 0, S)
    grant = lm.request(1, 0, X)
    assert not grant.granted
    assert grant.waiting_for == (2,)


def test_release_grants_next_in_fifo(lm):
    lm.request(1, 0, X)
    lm.request(2, 0, X)
    lm.request(3, 0, X)
    granted = lm.release_all(1)
    assert granted == {0: [2]}
    assert lock_table(lm) == {0: ({2: "X"}, [3])}


def test_release_grants_shared_batch(lm):
    lm.request(1, 0, X)
    lm.request(2, 0, S)
    lm.request(3, 0, S)
    granted = lm.release_all(1)
    assert granted == {0: [2, 3]}


def test_shared_batch_stops_at_exclusive(lm):
    lm.request(1, 0, X)
    lm.request(2, 0, S)
    lm.request(3, 0, X)
    lm.request(4, 0, S)
    granted = lm.release_all(1)
    # FIFO: the S is granted, then the X blocks the rest.
    assert granted == {0: [2]}
    assert lock_table(lm) == {0: ({2: "S"}, [3, 4])}


def test_no_queue_jumping(lm):
    lm.request(1, 0, X)
    lm.request(2, 0, X)   # queued
    grant = lm.request(3, 0, S)  # compatible with nothing queued? must queue
    assert not grant.granted
    assert 2 in grant.waiting_for


def test_release_removes_queued_requests(lm):
    lm.request(1, 0, X)
    lm.request(2, 0, X)
    lm.release_all(2)  # waiter gives up
    assert lock_table(lm) == {0: ({1: "X"}, [])}
    lm.release_all(1)
    assert lock_table(lm) == {}


def test_upgrade_granted_on_release(lm):
    lm.request(1, 0, S)
    lm.request(2, 0, S)
    lm.request(1, 0, X)  # queued upgrade
    granted = lm.release_all(2)
    assert granted == {0: [1]}
    assert lm.held_mode(1, 0) is X


def test_release_all_multiple_items(lm):
    lm.request(1, 0, X)
    lm.request(1, 1, X)
    lm.request(2, 0, S)
    lm.request(2, 1, S)
    granted = lm.release_all(1)
    assert granted == {0: [2], 1: [2]}
