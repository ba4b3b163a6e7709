"""The suspect-set detector against the algorithm it replaced.

``ReferenceDetector`` is the previous ``GlobalDeadlockDetector`` verbatim
(a ``_dirty`` flag answered by a colouring DFS over the whole graph, and
a cycle search that sorts every visited node's successors).  The
detector in ``src/`` must report the same cycles, in the same order, with
the same victims, for any interleaving of its public calls — including
abort hooks that call back into it.
"""

import random

import pytest

from repro.system.deadlock import GlobalDeadlockDetector


# -- the previous algorithm, kept only here ---------------------------------------


def reference_find_cycle(edges):
    GREY, BLACK = 1, 2
    colour = {}
    parent = {}
    for start in sorted(edges):
        if start in colour:
            continue
        colour[start] = GREY
        stack = [[start, sorted(edges[start]), 0]]
        while stack:
            frame = stack[-1]
            node, successors, index = frame
            advanced = False
            while index < len(successors):
                nxt = successors[index]
                index += 1
                seen = colour.get(nxt)
                if seen == GREY:
                    cycle = [nxt]
                    current = node
                    while current != nxt:
                        cycle.append(current)
                        current = parent[current]
                    cycle.reverse()
                    return cycle
                if seen is None:
                    colour[nxt] = GREY
                    parent[nxt] = node
                    frame[2] = index
                    out = edges.get(nxt)
                    stack.append([nxt, sorted(out) if out else [], 0])
                    advanced = True
                    break
            if not advanced:
                frame[2] = index
                colour[node] = BLACK
                stack.pop()
    return []


class ReferenceDetector:
    def __init__(self):
        self._waits = {}
        self._union = {}
        self._abort_fns = {}
        self._dirty = False
        self.deadlocks_found = 0
        self.victims = []

    def register(self, txn_id, abort_fn):
        self._abort_fns[txn_id] = abort_fn

    def forget(self, txn_id):
        self._waits.pop(txn_id, None)
        self._union.pop(txn_id, None)
        self._abort_fns.pop(txn_id, None)

    def _reunion(self, waiter, sites):
        union = set()
        for blockers in sites.values():
            union.update(blockers)
        self._union[waiter] = union

    def block(self, ctx, site_id, waiter, blockers):
        real = tuple(b for b in blockers if b != waiter)
        if not real:
            return
        sites = self._waits.setdefault(waiter, {})
        sites[site_id] = real
        self._reunion(waiter, sites)
        self._detect(ctx, waiter)

    def unblock(self, site_id, waiter):
        sites = self._waits.get(waiter)
        if sites is not None:
            sites.pop(site_id, None)
            if not sites:
                del self._waits[waiter]
                self._union.pop(waiter, None)
            else:
                self._reunion(waiter, sites)

    def edges(self):
        out = set()
        for waiter, sites in self._waits.items():
            for blockers in sites.values():
                for blocker in blockers:
                    out.add((waiter, blocker))
        return sorted(out)

    def _detect(self, ctx, waiter):
        edges = self._union
        was_dirty = self._dirty
        if was_dirty:
            if not self._has_cycle(edges):
                self._dirty = False
                return
            cycle = reference_find_cycle(edges)
        else:
            if not self._reaches(edges, waiter):
                return
            cycle = reference_find_cycle(edges)
            if not cycle:
                return
        self.deadlocks_found += 1
        victim = max(cycle)
        self.victims.append(victim)
        abort_fn = self._abort_fns.get(victim)
        self.forget(victim)
        self._dirty = was_dirty or victim != waiter
        if abort_fn is not None:
            abort_fn(ctx)

    @staticmethod
    def _has_cycle(edges):
        GREY, BLACK = 1, 2
        colour = {}
        for start in edges:
            if start in colour:
                continue
            colour[start] = GREY
            stack = [(start, iter(edges[start]))]
            while stack:
                node, successors = stack[-1]
                advanced = False
                for nxt in successors:
                    seen = colour.get(nxt)
                    if seen == GREY:
                        return True
                    if seen is None:
                        out = edges.get(nxt)
                        if out:
                            colour[nxt] = GREY
                            stack.append((nxt, iter(out)))
                            advanced = True
                            break
                        colour[nxt] = BLACK
                if not advanced:
                    colour[node] = BLACK
                    stack.pop()
        return False

    @staticmethod
    def _reaches(edges, waiter):
        stack = list(edges.get(waiter, ()))
        seen = set()
        while stack:
            node = stack.pop()
            if node == waiter:
                return True
            if node in seen:
                continue
            seen.add(node)
            nxt = edges.get(node)
            if nxt:
                stack.extend(nxt)
        return False


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


def _in_degrees(det):
    counts = {}
    for blockers in det._union.values():
        for blocker in blockers:
            counts[blocker] = counts.get(blocker, 0) + 1
    return counts


def _drive(seed):
    rng = random.Random(seed)
    txns = rng.choice((5, 8, 14, 30))  # dense (many cycles) to sparse
    sites = rng.choice((1, 2, 4))
    pair = (ReferenceDetector(), GlobalDeadlockDetector())

    def blockers():
        # drawn with replacement: duplicates, overlap between sites, self-waits
        return tuple(rng.randint(1, txns) for _ in range(rng.randint(0, 4)))

    found = 0
    for step in range(rng.randint(40, 160)):
        roll = rng.random()
        site, txn = rng.randrange(sites), rng.randint(1, txns)
        if roll < 0.55:
            call = ("block", None, site, txn, blockers())
        elif roll < 0.72:
            call = ("unblock", site, txn)
        elif roll < 0.80:
            call = ("forget", txn)
        else:
            action = (
                rng.choice(("none", "forget", "unblock", "block")),
                rng.randrange(sites), rng.randint(1, txns), blockers(),
            )
            call = ("register", txn, action)
        for det in pair:
            if call[0] == "register":
                det.register(txn, _hook(det, call[2]))
            else:
                getattr(det, call[0])(*call[1:])
        ref, new = pair
        where = f"seed {seed} step {step} {call}"
        assert new.victims == ref.victims, where
        assert new.deadlocks_found == ref.deadlocks_found, where
        assert new.edges() == ref.edges(), where
        assert new._waited_on == _in_degrees(new), where
        assert new._suspects <= new._union.keys(), where
        found = new.deadlocks_found
    return found


def test_same_victims_as_the_whole_graph_rescan_on_random_sequences():
    found = [_drive(seed) for seed in range(240)]
    # the sequences do exercise detection, not just bookkeeping
    assert sum(1 for n in found if n >= 3) >= 120


# -- directed cases -------------------------------------------------------------------


def _both():
    return ReferenceDetector(), GlobalDeadlockDetector()


def test_two_disjoint_cycles_alive_at_once():
    for det in _both():
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
        assert det.deadlocks_found == 3
    assert det._suspects == set()


@pytest.mark.parametrize("leave", ["forget", "unblock"])
def test_suspect_that_leaves_while_dirty(leave):
    for det in _both():
        det.block(None, 0, 9, (1,))
        det.block(None, 1, 1, (9,))  # victim 9 != waiter 1: 1 is a suspect
        assert det.victims == [9]
        if leave == "forget":
            det.forget(1)
        else:
            det.unblock(1, 1)
        assert det.edges() == []
        # the ids come back and deadlock again; nothing stale is consulted
        det.block(None, 0, 9, (1,))
        det.block(None, 0, 1, (9,))
        assert det.victims == [9, 9]
    assert det._suspects == {1}
    new = GlobalDeadlockDetector()
    new.block(None, 0, 9, (1,))
    new.block(None, 1, 1, (9,))
    assert new._suspects == {1}
    new.forget(1) if leave == "forget" else new.unblock(1, 1)
    assert new._suspects == set()


def test_partial_unblock_keeps_the_suspect():
    det = GlobalDeadlockDetector()
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
    det = GlobalDeadlockDetector()
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
