"""The deterministic cycle search and victim selection."""

import random

import pytest

from repro.errors import LockError
from repro.system.deadlock import GlobalDeadlockDetector, choose_victim, find_cycle

from test_deadlock_incremental import cycle_rule


def graph(*waits):
    """``(waiter, blockers)`` pairs as the search's adjacency: every
    waiter's blockers ascending, as the detector stores them."""
    return {waiter: tuple(sorted(blockers)) for waiter, blockers in waits}


def test_empty_graph_no_cycle():
    assert find_cycle({}) == []


def test_chain_is_not_a_cycle():
    assert find_cycle(graph((1, [2]), (2, [3]))) == []


def test_two_cycle():
    assert find_cycle(graph((1, [2]), (2, [1]))) == [1, 2]


def test_three_cycle():
    assert find_cycle(graph((1, [2]), (2, [3]), (3, [1]))) == [1, 2, 3]


def test_cycle_found_among_noise():
    edges = graph((10, [11]), (11, [12]), (5, [6]), (6, [5]))
    assert find_cycle(edges) == [5, 6]


def test_cycle_is_reported_in_path_order_from_the_back_edge_target():
    # 1 -> 2 -> 3 -> 4 -> 2: the tail (1) is not part of the cycle.
    assert find_cycle(graph((1, [2]), (2, [3]), (3, [4]), (4, [2]))) == [2, 3, 4]


def test_successors_are_tried_in_ascending_order():
    # From 1, blocker 2 (a dead end) is tried before 3 (the cycle).
    assert find_cycle(graph((1, [2, 3]), (3, [1]))) == [1, 3]
    # Both blockers close a cycle; the lower one wins.
    assert find_cycle(graph((1, [2, 3]), (2, [1]), (3, [1]))) == [1, 2]


def test_the_search_follows_the_oracles_rule_on_random_graphs():
    """``find_cycle``'s colouring search reports the cycle the oracle's
    brute-force walk picks (``test_deadlock_incremental.cycle_rule``)."""
    rng = random.Random(0)
    cyclic = 0
    for _ in range(5_000):
        nodes = rng.randint(1, 12)
        edges = {}
        for waiter in range(1, nodes + 1):
            blockers = {rng.randint(1, nodes + 2) for _ in range(rng.randint(0, 3))}
            if blockers - {waiter}:
                edges[waiter] = tuple(sorted(blockers - {waiter}))
        expected = cycle_rule(edges)
        assert find_cycle(edges) == expected, edges
        cyclic += bool(expected)
    assert cyclic >= 1_500  # neither side is let off with "no cycle"


def test_cross_site_cycle():
    """Each wait is at a different site; only their union is cyclic."""
    det = GlobalDeadlockDetector()
    det.block(None, 0, 1, (2,))
    det.block(None, 1, 2, (3,))
    det.block(None, 2, 3, (1,))
    assert det.deadlocks_found == 1
    assert det.victims == [3]
    assert det.edges() == [(1, 2), (2, 3)]


def test_victim_is_youngest():
    assert choose_victim([3, 9, 5]) == 9


def test_victim_from_empty_cycle_rejected():
    with pytest.raises(LockError):
        choose_victim([])


def test_deterministic_cycle_detection():
    def build():
        # Insertion order differs from id order on purpose.
        return find_cycle(graph((4, [2]), (2, [4]), (1, [3]), (3, [1])))

    assert build() == build()
    # Ascending roots mean the 1-3 cycle (lower ids) is found first.
    assert build() == [1, 3]


def test_lock_manager_integration():
    """Blocked lock requests feed the detector; a real deadlock is found."""
    from repro.txn.locks import LockManager, LockMode

    lm = LockManager()
    det = GlobalDeadlockDetector()
    aborted = []
    det.register(2, lambda ctx: aborted.append(2))
    lm.request(1, 0, LockMode.EXCLUSIVE)
    lm.request(2, 1, LockMode.EXCLUSIVE)
    grant = lm.request(1, 1, LockMode.EXCLUSIVE)
    assert not grant.granted
    det.block(None, 0, 1, grant.waiting_for)
    assert det.deadlocks_found == 0
    grant = lm.request(2, 0, LockMode.EXCLUSIVE)
    assert not grant.granted
    det.block(None, 0, 2, grant.waiting_for)
    assert det.victims == aborted == [2]
    lm.release_all(2)
    assert det.edges() == [(1, 2)]  # stale until 1 is resumed and unblocks
    det.unblock(0, 1)
    assert det.edges() == []
