"""The suspect-set detector against an oracle that recomputes everything.

``Oracle`` stands where the detector stands (lock services and abort
hooks call it) and forwards each call to a real
``GlobalDeadlockDetector``.  Beside it, it keeps the waits the calls
recorded and, from those alone, with brute-force reachability, states
what the detector must show after every call — including the calls an
abort hook makes back into it while it is detecting.  It reads the
detector's incremental state only to check it, never to decide.
"""

import random
from collections import Counter

import pytest

from repro.soak.engine import SoakConfig, run_soak
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.system.deadlock import GlobalDeadlockDetector
from repro.system.openloop import run_open_loop

# -- the oracle -----------------------------------------------------------------------


def cycle_rule(graph):
    """The cycle the detector must report, or ``[]``: from the smallest
    waiter that reaches a cycle, step to the smallest blocker that is on
    the walk or reaches a cycle itself, until the walk meets itself."""
    reaches = {}
    for node in graph:  # brute force: every node one or more edges away
        seen, new = set(), set(graph[node])
        while new:
            seen |= new
            new = {b for n in new for b in graph.get(n, ())} - seen
        reaches[node] = seen
    # Nodes that reach a cycle; a node on the walk is one of them.
    leads = {n for n in graph if any(m in reaches.get(m, ()) for m in reaches[n])}
    walk, node = [], min(leads, default=None)
    while node is not None and node not in walk:
        walk.append(node)
        node = min(b for b in graph[node] if b in leads)
    return walk[walk.index(node):] if walk else []


class Oracle:
    """A detector's calls, forwarded and checked against a model of them."""

    def __init__(self, detector=None):
        self.detector = detector or GlobalDeadlockDetector()
        self.waits = {}  # waiter -> site -> blockers, the waiter left out
        self.expected = []  # the victims the model chose
        self.blocks = self.survivors = 0

    def __getattr__(self, name):  # register, close, edges, counts, state
        return getattr(self.detector, name)

    def graph(self):
        return {w: set().union(*sites.values()) for w, sites in self.waits.items()}

    def block(self, ctx, site, waiter, blockers):
        self.blocks += 1
        if real := set(blockers) - {waiter}:
            self.waits.setdefault(waiter, {})[site] = real
            if cycle := cycle_rule(self.graph()):  # one victim per block()
                self.expected.append(max(cycle))
                del self.waits[max(cycle)]
        self.detector.block(ctx, site, waiter, blockers)
        self.survivors += bool(cycle_rule(self.graph()))
        self.check()

    def unblock(self, site, waiter):
        sites = self.waits.get(waiter, {})
        if sites.pop(site, None) and not sites:
            del self.waits[waiter]
        self.detector.unblock(site, waiter)
        self.check()

    def forget(self, txn):
        self.waits.pop(txn, None)
        self.detector.forget(txn)
        self.check()

    def check(self):
        det, graph = self.detector, self.graph()
        assert det.edges() == sorted((w, b) for w in graph for b in graph[w])
        assert det.victims == self.expected
        assert det.deadlocks_found == len(det.victims)
        assert det._waited_on == Counter(b for w in graph for b in graph[w])
        assert det._suspects <= graph.keys()
        # Every cycle passes through a suspect: without them, none is left.
        rest = {w: graph[w] - det._suspects for w in graph.keys() - det._suspects}
        assert not cycle_rule(rest), "a cycle through no suspect"


# -- seeded random sequences --------------------------------------------------------


def _hook(det, action):
    """An abort hook that calls back into ``det`` while it is detecting,
    as a coordinator cancelling its victim's locks does."""
    kind, site, txn, blockers = action

    def abort(ctx):
        if kind == "forget":
            det.forget(txn)
        elif kind == "unblock":
            det.unblock(site, txn)
        elif kind == "block":
            det.block(ctx, site, txn, blockers)

    return abort


def _drive(seed):
    rng = random.Random(seed)
    txns = rng.choice((5, 8, 14, 30))  # dense (many cycles) to sparse
    sites = rng.choice((1, 2, 4))
    det = Oracle()

    def blockers():
        # drawn with replacement: duplicates, overlap between sites, self-waits
        return tuple(rng.randint(1, txns) for _ in range(rng.randint(0, 4)))

    for step in range(rng.randint(40, 160)):
        roll = rng.random()
        site, txn = rng.randrange(sites), rng.randint(1, txns)
        try:
            if roll < 0.55:
                det.block(None, site, txn, blockers())
            elif roll < 0.72:
                det.unblock(site, txn)
            elif roll < 0.80:
                det.forget(txn)
            else:
                action = (
                    rng.choice(("none", "forget", "unblock", "block")),
                    rng.randrange(sites), rng.randint(1, txns), blockers(),
                )
                det.register(txn, _hook(det, action))
        except AssertionError as exc:
            exc.add_note(f"seed {seed} step {step}")
            raise
    return det.deadlocks_found


def test_random_call_sequences_agree_with_the_oracle():
    found = [_drive(seed) for seed in range(240)]
    # the sequences do exercise detection, not just bookkeeping
    assert sum(1 for n in found if n >= 3) >= 120


# -- live traffic ---------------------------------------------------------------------


def _under_oracle(run):
    """Run ``run()`` with its cluster's detector behind an ``Oracle``."""
    oracles = []
    install = Cluster.install_deadlock_detector

    def checked(cluster):
        detector = install(cluster)
        oracle = Oracle(detector)
        for site in cluster.sites:
            site.lock_service.detector = oracle
        oracles.append(oracle)
        return detector

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Cluster, "install_deadlock_detector", checked)
        run()
    [oracle] = oracles
    return oracle


@pytest.fixture(scope="module")
def storm():
    """``lock-storm``'s shape (bench/workloads.py) at 200 txns: one core,
    12 tps, above capacity."""
    config = SystemConfig(
        seed=42, concurrency_control=True, timeouts_enabled=True,
        vote_timeout_ms=60_000.0, commit_retry_ms=60_000.0,
        status_inquiry_ms=120_000.0,
    )
    return _under_oracle(
        lambda: run_open_loop(
            config, txn_count=200, arrival_rate_tps=12.0, keep_records=False
        )
    )


def test_live_traffic_agrees_with_the_oracle(storm):
    # ``soak-failover``'s shape at 600 txns, through its fail/recover cycle.
    failover = _under_oracle(lambda: run_soak(SoakConfig(seed=42, txns=600)))
    assert storm.blocks + failover.blocks >= 900
    assert len(storm.expected) + len(failover.expected) >= 250


@pytest.mark.xfail(strict=True, reason="one victim per block(): ROADMAP 1(a)")
def test_no_cycle_outlives_a_block(storm):
    """``block()`` breaks one cycle and returns, so a second one waits
    for the next ``block()`` — which never comes once every survivor is
    parked (``test_deadlock_missed_cycle.py``)."""
    assert storm.survivors == 0


# -- directed cases -------------------------------------------------------------------


def test_two_disjoint_cycles_alive_at_once():
    det = Oracle()
    det.block(None, 0, 10, (1,))
    det.block(None, 0, 11, (1,))
    det.block(None, 0, 20, (2,))
    # 1 closes two cycles at once; one report per block: [1, 10] dies.
    det.block(None, 0, 1, (10, 11))
    assert det.victims == [10]
    # 2 closes a cycle disjoint from the surviving [1, 11]; the search
    # meets the lower root first, so [2, 20] outlives this block too.
    det.block(None, 0, 2, (20,))
    assert det.victims == [10, 11]
    assert det.edges() == [(1, 10), (1, 11), (2, 20), (20, 2)]
    # ... and is found on the next block of an unrelated waiter.
    det.block(None, 0, 30, (31,))
    assert det.victims == [10, 11, 20]
    det.block(None, 0, 40, (41,))
    assert det.victims == [10, 11, 20]
    assert det.deadlocks_found == 3 and det.survivors == 2
    assert det._suspects == set()


@pytest.mark.parametrize("leave", ["forget", "unblock"])
def test_suspect_that_leaves_while_dirty(leave):
    det = Oracle()
    det.block(None, 0, 9, (1,))
    det.block(None, 1, 1, (9,))  # victim 9 != waiter 1: 1 is a suspect
    assert det.victims == [9] and det._suspects == {1}
    det.forget(1) if leave == "forget" else det.unblock(1, 1)
    assert det.edges() == [] and det._suspects == set()
    # the ids come back and deadlock again; nothing stale is consulted
    det.block(None, 0, 9, (1,))
    det.block(None, 0, 1, (9,))
    assert det.victims == [9, 9] and det._suspects == {1}


def test_partial_unblock_keeps_the_suspect():
    det = Oracle()
    det.block(None, 0, 1, (8,))
    det.block(None, 0, 9, (1,))
    det.block(None, 0, 8, (1,))  # [1, 8], victim 8 == waiter: still clean
    assert det._suspects == set()
    det.block(None, 1, 1, (9,))  # [1, 9], victim 9 != waiter 1
    assert det._suspects == {1}
    det.unblock(1, 1)  # still waits at site 0
    assert det._suspects == {1}
    det.unblock(0, 1)
    assert det._suspects == set()


def test_victim_equal_to_waiter_keeps_the_detector_clean():
    det = Oracle()
    det.block(None, 0, 1, (2,))
    det.block(None, 0, 2, (1,))
    assert det.victims == [2]
    assert det._suspects == set()


class _CountingEdges(dict):
    """The union adjacency, counting what the detector reads of it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.lookups = 0
        self.scans = 0

    def get(self, *args):
        self.lookups += 1
        return super().get(*args)

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)

    def __iter__(self):
        self.scans += 1
        return super().__iter__()

    def items(self):
        self.scans += 1
        return super().items()

    def values(self):
        self.scans += 1
        return super().values()


def test_block_on_a_dirty_acyclic_graph_reads_only_what_it_can_reach():
    det = GlobalDeadlockDetector()
    for waiter in range(300):
        det.block(None, 0, waiter, (waiter + 1,))  # 0 -> 1 -> ... -> 300
    # Somebody waits on 5000, 6000 and 7000, or they would need no search.
    det.block(None, 0, 9000, (5000, 6000, 7000))
    det.block(None, 0, 5001, (5000,))
    det.block(None, 0, 5000, (5001,))  # victim 5001 != waiter: dirty
    assert det.victims == [5001] and det._suspects == {5000}
    edges = det._union = _CountingEdges(det._union)
    assert len(edges) == 302
    # The previous detector coloured all 302 waiters here.
    det.block(None, 0, 6000, (299,))
    assert det.deadlocks_found == 1
    assert edges.scans == 0
    assert edges.lookups <= 8  # 5000 -> 5001; 6000 -> 299 -> 300
    assert det._suspects == set()
    # O(reachable) is still the cost: from the head, the whole chain.
    edges.lookups = 0
    det.block(None, 0, 7000, (0,))
    assert edges.scans == 0
    assert 300 <= edges.lookups <= 310
