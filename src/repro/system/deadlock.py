"""Global deadlock detection service for the concurrent mode.

Every blocked lock request anywhere in the cluster reports its waits-for
edges here; the detector looks for a cycle eagerly on each report and
aborts the youngest transaction in it (the conventional cheap victim).
This models the centralized-detector option of 1980s distributed DBMSs —
the complete RAID design the paper defers to.

A transaction can be blocked at several sites at once (its phase-one copy
updates queue independently per participant), so waits are keyed by
``(waiter, site)`` and the global graph is the union over sites.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import LockError
from repro.net.endpoint import HandlerContext


def find_cycle(edges: dict[int, tuple[int, ...]]) -> list[int]:
    """A deadlock cycle in a waits-for mapping, or ``[]`` if none.

    ``edges`` maps each waiter to its blockers in *ascending* order (the
    detector keeps them that way, see ``_reunion``).  Iterative DFS with
    colouring; roots ascending, successors ascending, first back edge
    wins — so which cycle is reported, and hence which victim dies, is
    reproducible.  A node with no outgoing edges lies on no cycle and is
    finished the moment it is seen.
    """
    GREY, BLACK = 1, 2
    # Unvisited nodes are simply absent (the classic WHITE colour).
    colour: dict[int, int] = {}
    colour_get = colour.get
    edges_get = edges.get
    for start in sorted(edges):
        if start in colour:
            continue
        colour[start] = GREY
        # The grey path and, beside it, each path node's successor
        # iterator (resuming one costs nothing).
        path = [start]
        pending = [iter(edges[start])]
        while path:
            for nxt in pending[-1]:
                seen = colour_get(nxt)
                if seen == GREY:
                    # Back edge: the cycle is the path from ``nxt`` on.
                    return path[path.index(nxt):]
                if seen is None:
                    out = edges_get(nxt)
                    if out:
                        colour[nxt] = GREY
                        path.append(nxt)
                        pending.append(iter(out))
                        break
                    colour[nxt] = BLACK
            else:
                colour[path.pop()] = BLACK
                pending.pop()
    return []


def choose_victim(cycle: list[int]) -> int:
    """Pick the youngest (highest-id) transaction in the cycle.

    Transaction ids are issued in start order, so the highest id has
    done the least work — the conventional cheap victim.
    """
    if not cycle:
        raise LockError("cannot choose a victim from an empty cycle")
    return max(cycle)


class GlobalDeadlockDetector:
    """Cluster-wide waits-for bookkeeping plus victim-abort dispatch."""

    __slots__ = (
        "_waits",
        "_union",
        "_abort_fns",
        "_suspects",
        "_waited_on",
        "deadlocks_found",
        "victims",
    )

    def __init__(self) -> None:
        # waiter -> site -> blockers at that site.
        self._waits: dict[int, dict[int, tuple[int, ...]]] = {}
        # waiter -> union of its blockers across sites, ascending; rebuilt
        # (and sorted) only when that waiter's waits change, so detection
        # never rebuilds the graph and the search never sorts.
        self._union: dict[int, tuple[int, ...]] = {}
        # txn -> callable(ctx) that aborts the transaction at its
        # coordinator; registered when the coordinator starts the txn.
        self._abort_fns: dict[int, Callable[[HandlerContext], None]] = {}
        # Waiters that blocked since the graph was last known acyclic.
        # Invariant: every cycle passes through a member (edges are only
        # ever added by ``block(waiter)``, and only out of ``waiter``), so
        # empty means acyclic and "is there a cycle?" is "does a member
        # reach itself?" — never a scan of the whole graph.
        self._suspects: set[int] = set()
        # txn -> how many waiters' unions contain it (absent = none).  A
        # txn nobody waits on lies on no cycle, so it needs no search —
        # the usual case: a txn blocking on its first lock holds nothing.
        self._waited_on: dict[int, int] = {}
        self.deadlocks_found = 0
        self.victims: list[int] = []

    # -- registration ---------------------------------------------------------

    def register(self, txn_id: int, abort_fn: Callable[[HandlerContext], None]) -> None:
        """The coordinator of ``txn_id`` registers its abort hook."""
        self._abort_fns[txn_id] = abort_fn

    def forget(self, txn_id: int) -> None:
        """A transaction finished (commit or abort): drop all its state."""
        if self._waits.pop(txn_id, None) is not None:
            self._reunion(txn_id, {})
        self._abort_fns.pop(txn_id, None)

    def close(self) -> None:
        """The run is over: drop the abort hooks still registered (those of
        transactions a stalled or failed run left unfinished), which point
        back into their sites.  The counts stay readable."""
        self._abort_fns.clear()

    # -- wait bookkeeping ----------------------------------------------------------

    def _reunion(self, waiter: int, sites: dict[int, tuple[int, ...]]) -> None:
        """Re-derive ``waiter``'s union and move the in-degree counts from
        the old one to the new.  With no ``sites`` left the waiter leaves
        the graph, and the suspects with it: it lies on no cycle."""
        union: set[int] = set()
        for blockers in sites.values():
            union.update(blockers)
        new = tuple(sorted(union))
        old = self._union.get(waiter, ())
        if new == old:
            return
        if new:
            self._union[waiter] = new
        else:
            del self._union[waiter]
            self._suspects.discard(waiter)
        waited_on = self._waited_on
        for blocker in old:
            left = waited_on[blocker] - 1
            if left:
                waited_on[blocker] = left
            else:
                del waited_on[blocker]
        for blocker in new:
            waited_on[blocker] = waited_on.get(blocker, 0) + 1

    def block(
        self,
        ctx: HandlerContext,
        site_id: int,
        waiter: int,
        blockers: tuple[int, ...],
    ) -> None:
        """Record that ``waiter`` is blocked at ``site_id``; detect."""
        real = tuple(b for b in blockers if b != waiter)
        if not real:
            return
        sites = self._waits.get(waiter)
        if sites is None:
            sites = self._waits[waiter] = {}
        sites[site_id] = real
        self._reunion(waiter, sites)
        self._detect(ctx, waiter)

    def unblock(self, site_id: int, waiter: int) -> None:
        """``waiter`` stopped waiting at ``site_id`` (other sites may still
        hold it blocked).  Every completed lock acquisition reports here,
        and most never waited: then there is nothing to change."""
        sites = self._waits.get(waiter)
        if sites is None or sites.pop(site_id, None) is None:
            return
        self._reunion(waiter, sites)
        if not sites:
            del self._waits[waiter]

    def edges(self) -> list[tuple[int, int]]:
        """The current global waits-for edges, sorted."""
        return sorted(
            (waiter, blocker)
            for waiter, blockers in self._union.items()
            for blocker in blockers
        )

    # -- detection -----------------------------------------------------------------

    def _detect(self, ctx: HandlerContext, waiter: int) -> None:
        # Existence first, through the suspects alone (whether a cycle
        # exists is traversal-order independent).  A suspect that does
        # not reach itself lies on no cycle and can only join one through
        # its own next block(), which re-adds it.  Only a genuine cycle
        # pays for the deterministic search that fixes which cycle is
        # reported and which victim dies.
        edges = self._union
        suspects = self._suspects
        waited_on = self._waited_on
        suspects.add(waiter)
        for suspect in tuple(suspects):
            if suspect in waited_on and self._reaches(edges, suspect):
                break
            suspects.discard(suspect)
        else:
            return
        self.deadlocks_found += 1
        victim = choose_victim(find_cycle(edges))
        self.victims.append(victim)
        abort_fn = self._abort_fns.get(victim)
        # Breaking one cycle may leave another, but only through a
        # surviving suspect.  Forgetting the victim drops it from the
        # set: when the waiter is itself the victim (the youngest txn in
        # the cycle is often the latest blocker) nothing is left to
        # re-check.
        self.forget(victim)
        if abort_fn is not None:
            abort_fn(ctx)

    @staticmethod
    def _reaches(edges: dict[int, tuple[int, ...]], waiter: int) -> bool:
        """Whether ``waiter`` can reach itself (pure existence check —
        traversal order never leaks into the result)."""
        stack = list(edges.get(waiter, ()))
        seen: set[int] = set()
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

    def __repr__(self) -> str:
        return (
            f"GlobalDeadlockDetector(found={self.deadlocks_found}, "
            f"victims={self.victims}, waiting={sorted(self._waits)})"
        )
