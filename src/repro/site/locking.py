"""Per-site lock service for the "complete RAID" concurrent mode.

Mini-RAID processed transactions serially (paper assumption 2); the paper
defers concurrency control to the complete RAID system.  This module
supplies the site-local half of that future work: each site runs a strict
two-phase-locking table over its own copies, and a transaction's protocol
step at the site proceeds only once its locks are granted — otherwise the
step *parks* and resumes when a conflicting transaction releases.

Lock scope.  An acquisition whose locks are all SHARED and all grantable
at once (:meth:`LockManager.shareable`) runs its step without recording
them: the grants live in an activation-local *scope* while the step runs.
Nothing outside the step can observe them — every other activation runs
before or after it, and an acquisition made *during* it records the
scope first — so a release inside the step just drops them, and grants
still held when the step returns are recorded then, leaving the lock
table exactly as plain requests would have.  The costs are charged as
on the recorded path, one addition per request and per release.

Blocked requests report their blockers to the cluster's global deadlock
detector (see :mod:`repro.system.deadlock`), mirroring a System R*-style
centralized waits-for service.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Optional, TYPE_CHECKING

from repro.net.endpoint import HandlerContext
from repro.obs.events import EventKind
from repro.txn.locks import LockManager, LockMode

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.site.site import DatabaseSite
    from repro.system.deadlock import GlobalDeadlockDetector


@dataclass(slots=True)
class _Scope:
    """SHARED grants held by the step running now, not yet recorded."""

    txn_id: int
    grants: list[tuple[int, LockMode]]
    # The transaction's deadlock abort hook, registered with the detector
    # only if these grants get recorded.
    victim: Optional[Callable[[HandlerContext], None]]


@dataclass(slots=True)
class _Parked:
    """A lock acquisition waiting at this site."""

    txn_id: int
    remaining: list[tuple[int, LockMode]]
    continuation: Callable[[HandlerContext], None]
    cancelled: bool = False
    # True while a resume activation is scheduled but not yet run; guards
    # against double-resume when several releases land in one instant.
    in_flight: bool = False


class SiteLockService:
    """Strict 2PL over one site's copies, with parked continuations."""

    __slots__ = ("site", "manager", "detector", "_parked", "_scope", "parks")

    def __init__(self, site: "DatabaseSite") -> None:
        self.site = site
        self.manager = LockManager()
        self.detector: Optional["GlobalDeadlockDetector"] = None
        self._parked: dict[int, _Parked] = {}
        self._scope: Optional[_Scope] = None
        self.parks = 0

    # -- acquisition -------------------------------------------------------------

    def acquire(
        self,
        ctx: HandlerContext,
        txn_id: int,
        requests: list[tuple[int, LockMode]],
        continuation: Callable[[HandlerContext], None],
        victim: Optional[Callable[[HandlerContext], None]] = None,
    ) -> None:
        """Acquire ``requests`` (in item order) then run ``continuation``.

        If every lock is free the continuation runs synchronously within
        the current activation (the fast path — no extra latency, and no
        parked state allocated); shareable locks stay in a scope while it
        runs (see the module docstring).  On conflict the request parks;
        the continuation later runs in a fresh activation once the final
        lock is granted.  ``victim``, the transaction's deadlock abort
        hook, goes to the detector once the acquisition records a lock.
        """
        ordered = sorted(requests, key=itemgetter(0))
        cost = self.site.costs.lock_request_cost
        scope = self._scope
        if scope is not None:
            # Another step's grants become visible before this request.
            self._record(scope)
        elif self.manager.shareable(txn_id, ordered):
            for _request in ordered:
                ctx.cost += cost
            # As _proceed, less the parked entry a transaction touching
            # nothing here cannot have; a wait a plain release left
            # behind still goes.
            if self.detector is not None:
                self.detector.unblock(self.site.site_id, txn_id)
            scope = self._scope = _Scope(txn_id, ordered, victim)
            try:
                continuation(ctx)
            finally:
                if self._scope is scope:
                    self._record(scope)
            return
        if victim is not None and self.detector is not None:
            self.detector.register(txn_id, victim)
        request = self.manager.request
        for index, (item, mode) in enumerate(ordered):
            ctx.cost += cost
            grant = request(txn_id, item, mode)
            if not grant.granted:
                self.parks += 1
                parked = _Parked(txn_id, ordered[index:], continuation)
                self._block(ctx, parked, item, grant.waiting_for)
                return
        self._proceed(ctx, txn_id, continuation)

    def _record(self, scope: _Scope) -> None:
        """Enter a scope's grants in the lock table.  Each is granted: the
        scope's items had no X holder and no queue, and only a request —
        which records the scope first — could have added either."""
        self._scope = None
        txn_id = scope.txn_id
        if scope.victim is not None and self.detector is not None:
            self.detector.register(txn_id, scope.victim)
        request = self.manager.request
        for item, mode in scope.grants:
            request(txn_id, item, mode)

    def _try_acquire(self, ctx: HandlerContext, parked: _Parked) -> None:
        """Carry a resumed acquisition on from its next request."""
        remaining = parked.remaining
        while remaining:
            item, mode = remaining[0]
            ctx.cost += self.site.costs.lock_request_cost
            grant = self.manager.request(parked.txn_id, item, mode)
            if grant.granted:
                remaining.pop(0)
                continue
            self._block(ctx, parked, item, grant.waiting_for)
            return
        self._proceed(ctx, parked.txn_id, parked.continuation)

    def _block(
        self,
        ctx: HandlerContext,
        parked: _Parked,
        item: int,
        waiting_for: tuple[int, ...],
    ) -> None:
        """Park ``parked`` (its head is the blocked request) and tell the
        global detector."""
        site = self.site
        self._parked[parked.txn_id] = parked
        obs = site.network.obs
        if obs.enabled:
            obs.emit(
                ctx.now,
                EventKind.LOCK_BLOCK,
                site=site.site_id,
                txn=parked.txn_id,
                item=item,
                waiting_for=sorted(waiting_for),
            )
        if self.detector is not None:
            self.detector.block(ctx, site.site_id, parked.txn_id, waiting_for)

    def _proceed(
        self,
        ctx: HandlerContext,
        txn_id: int,
        continuation: Callable[[HandlerContext], None],
    ) -> None:
        """Every lock is held: nothing waits any more, run the step."""
        self._parked.pop(txn_id, None)
        if self.detector is not None:
            self.detector.unblock(self.site.site_id, txn_id)
        continuation(ctx)

    # -- release -------------------------------------------------------------------

    def release(self, ctx: HandlerContext, txn_id: int) -> None:
        """Strict release at commit/abort; resumes newly granted waiters."""
        ctx.cost += self.site.costs.lock_release_cost
        scope = self._scope
        if scope is not None and scope.txn_id == txn_id:
            # Its grants were never recorded, and the transaction holds
            # nothing else here: nobody waits on it.
            self._scope = None
            return
        granted = self.manager.release_all(txn_id)
        self._parked.pop(txn_id, None)
        if not granted:
            return
        resumed: set[int] = set()
        for newly in granted.values():
            resumed.update(newly)
        for waiter in sorted(resumed):
            self._resume(waiter)

    def _resume(self, waiter: int) -> None:
        parked = self._parked.get(waiter)
        if parked is None or parked.cancelled or parked.in_flight:
            return
        if not parked.remaining:
            return
        head_item, mode = parked.remaining[0]
        held = self.manager.held_mode(waiter, head_item)
        granted = held is LockMode.EXCLUSIVE or (
            mode is LockMode.SHARED and held is LockMode.SHARED
        )
        if not granted:
            return  # spurious wake-up: the head lock was not granted to us
        parked.remaining.pop(0)
        parked.in_flight = True
        if self.detector is not None:
            self.detector.unblock(self.site.site_id, waiter)

        def go(ctx: HandlerContext) -> None:
            parked.in_flight = False
            if parked.cancelled:
                return
            self._try_acquire(ctx, parked)

        self.site.network.spawn(self.site, go)

    def cancel(self, ctx: HandlerContext, txn_id: int) -> None:
        """Abort path: drop any parked continuation and release locks."""
        parked = self._parked.pop(txn_id, None)
        if parked is not None:
            parked.cancelled = True
        self.release(ctx, txn_id)
        if self.detector is not None:
            self.detector.forget(txn_id)

    def wipe(self) -> None:
        """Crash: the lock table is volatile, so all of it is lost.

        Parked continuations are cancelled (their closures may still be
        scheduled; the flag makes them no-ops), the global detector drops
        this site's wait-for edges, and the lock table restarts empty.
        Waiters are deliberately *not* resumed — their transactions died
        with the site.
        """
        for parked in self._parked.values():
            parked.cancelled = True
            if self.detector is not None:
                self.detector.unblock(self.site.site_id, parked.txn_id)
        self._parked.clear()
        self._scope = None
        self.manager = LockManager()

    def close(self) -> None:
        """The run is over: drop what points back into the sites — the
        pointer to this one, parked continuations and the detector's abort
        hooks.  ``parks``, ``manager`` and ``detector`` stay readable."""
        self.site = None  # type: ignore[assignment]
        self._parked.clear()
        if self.detector is not None:
            self.detector.close()

    @property
    def parked_txns(self) -> list[int]:
        """Transactions currently waiting at this site, sorted."""
        return sorted(self._parked)

    def __repr__(self) -> str:
        return f"SiteLockService(parked={self.parked_txns}, {self.manager!r})"
