"""The lock service's allocation-free fast path against the parked path.

``ReferenceLockService`` is the previous ``SiteLockService`` acquisition
and release verbatim (tracing omitted): every acquisition builds a
``_Parked`` and walks it through ``_try_acquire``, and every release
builds and sorts the resumed set.  ``ReferenceDetector.unblock`` is the
previous ``GlobalDeadlockDetector.unblock``, which always re-derives the
waiter's union.  Seeded multi-site lock traffic — overlapping S/X sets,
releases, cancels, crashes that wipe a lock table, and deadlock victims
whose abort hooks re-enter the lock services — must produce the same
grants, parks, waits-for edges, victims, continuation order and
``ctx.cost``, bit for bit, through both.
"""

import random

import pytest

from repro.site.locking import SiteLockService, _Parked
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.system.deadlock import GlobalDeadlockDetector
from repro.txn.locks import LockMode


# -- the previous implementation, kept only here ----------------------------------


class ReferenceLockService(SiteLockService):
    __slots__ = ()

    def acquire(self, ctx, txn_id, requests, continuation):
        ordered = sorted(requests, key=lambda r: r[0])
        self._try_acquire(ctx, _Parked(txn_id, ordered, continuation), first=True)

    def _try_acquire(self, ctx, parked, first=False):
        site = self.site
        while parked.remaining:
            item, mode = parked.remaining[0]
            ctx.cost += site.costs.lock_request_cost
            grant = self.manager.request(parked.txn_id, item, mode)
            if grant.granted:
                parked.remaining.pop(0)
                continue
            self._parked[parked.txn_id] = parked
            if first:
                self.parks += 1
            if self.detector is not None:
                self.detector.block(
                    ctx, site.site_id, parked.txn_id, grant.waiting_for
                )
            return
        self._parked.pop(parked.txn_id, None)
        if self.detector is not None:
            self.detector.unblock(self.site.site_id, parked.txn_id)
        parked.continuation(ctx)

    def release(self, ctx, txn_id):
        ctx.cost += self.site.costs.lock_release_cost
        granted = self.manager.release_all(txn_id)
        self._parked.pop(txn_id, None)
        resumed = set()
        for newly in granted.values():
            resumed.update(newly)
        for waiter in sorted(resumed):
            self._resume(waiter)


class ReferenceDetector(GlobalDeadlockDetector):
    __slots__ = ()

    def unblock(self, site_id, waiter):
        sites = self._waits.get(waiter)
        if sites is not None:
            sites.pop(site_id, None)
            self._reunion(waiter, sites)
            if not sites:
                del self._waits[waiter]


# -- seeded traffic ----------------------------------------------------------------

SITES = 3
ITEMS = 6
TXNS = 10


def traffic_plan(seed: int, ops: int = 240) -> list[tuple]:
    """``(delay, kind, site, txn, requests, release_at_once, base_cost)``
    rows, drawn before either run so both see the same plan.  An
    activation starts at ``base_cost`` (a receive cost, say), so the
    lock costs added to it round as they do in a real handler."""
    rng = random.Random(seed)
    modes = (LockMode.SHARED, LockMode.EXCLUSIVE)
    plan = []
    for _ in range(ops):
        kind = rng.choices(
            ("acquire", "release", "cancel", "wipe"), weights=(12, 4, 2, 1)
        )[0]
        requests = [
            (rng.randrange(ITEMS), rng.choice(modes))
            for _ in range(rng.randint(1, 4))
        ]
        plan.append((
            rng.choice((0.0, 0.0, 1.0, 2.5, 7.0)),
            kind,
            rng.randrange(SITES),
            rng.randrange(1, TXNS + 1),
            requests,
            rng.random() < 0.3,
            rng.choice((0.0, 0.1, 4.5, 1 / 3)),
        ))
    return plan


def run_traffic(plan, reference: bool) -> tuple[list, GlobalDeadlockDetector, list]:
    config = SystemConfig(
        db_size=ITEMS, num_sites=SITES, max_txn_size=3, seed=1,
        concurrency_control=True, cores=2,
    )
    cluster = Cluster(config)
    detector = cluster.install_deadlock_detector()
    sites = cluster.sites
    if reference:
        detector.__class__ = ReferenceDetector
        for site in sites:
            site.lock_service.__class__ = ReferenceLockService
    log: list = []

    def snapshot(tag, ctx) -> None:
        log.append((
            tag,
            ctx.now,
            ctx.cost.hex(),
            detector.edges(),
            tuple(detector.victims),
            tuple(site.lock_service.parks for site in sites),
            tuple(site.lock_service.manager.signature() for site in sites),
            tuple(tuple(site.lock_service.parked_txns) for site in sites),
        ))

    def abort_hook(txn):
        def abort(ctx) -> None:
            # A victim dies everywhere, from inside the detector's block().
            log.append(("abort", txn, ctx.cost.hex()))
            for site in sites:
                site.lock_service.cancel(ctx, txn)
        return abort

    def activation(kind, site_id, txn, requests, release_at_once, base_cost):
        service = sites[site_id].lock_service

        def run(ctx) -> None:
            ctx.cost = base_cost
            if kind == "acquire":
                detector.register(txn, abort_hook(txn))

                def continuation(ctx2) -> None:
                    # ``ctx2 is ctx``: granted at once, not resumed later.
                    log.append(
                        ("granted", site_id, txn, ctx2 is ctx, ctx2.now, ctx2.cost.hex())
                    )
                    if release_at_once:
                        service.release(ctx2, txn)

                service.acquire(ctx, txn, requests, continuation)
            elif kind == "release":
                service.release(ctx, txn)
            elif kind == "cancel":
                service.cancel(ctx, txn)
            else:
                sites[site_id].lock_service.wipe()
            snapshot((kind, site_id, txn), ctx)

        return run

    at = 0.0
    for delay, *row in plan:
        at += delay
        cluster.network.spawn(sites[row[1]], activation(*row), delay=at)
    cluster.scheduler.run()
    log.append(("end", cluster.scheduler.fired, cluster.now))
    return log, detector, sites


@pytest.mark.parametrize("seed", range(12))
def test_fast_path_matches_the_parked_path(seed):
    plan = traffic_plan(seed)
    log, detector, sites = run_traffic(plan, reference=False)
    expected, ref_detector, _ = run_traffic(plan, reference=True)
    assert type(ref_detector) is ReferenceDetector
    assert log == expected
    # The traffic reaches every branch the comparison is for: grants at
    # once and after a wait, parks, victims, wiped lock tables.
    granted = {row[3] for row in log if row[0] == "granted"}
    assert granted == {True, False}
    assert sum(site.lock_service.parks for site in sites) and detector.victims
    assert any(row[0][0] == "wipe" for row in log if isinstance(row[0], tuple))


def test_unblock_without_a_wait_at_that_site_changes_nothing():
    class Ctx:
        pass

    detector = GlobalDeadlockDetector()
    detector.block(Ctx(), 0, 1, (2, 3))
    detector.block(Ctx(), 1, 1, (4,))
    detector.block(Ctx(), 0, 2, (4,))
    detector.block(Ctx(), 1, 4, (5,))

    def state():
        return (
            detector.edges(),
            dict(detector._waited_on),
            set(detector._suspects),
            {w: dict(s) for w, s in detector._waits.items()},
            dict(detector._union),
        )

    before = state()
    detector.unblock(2, 1)   # waits at sites 0 and 1 only
    detector.unblock(1, 2)   # waits at site 0 only
    detector.unblock(0, 9)   # waits nowhere
    assert state() == before
    detector.unblock(0, 1)
    assert detector.edges() == [(1, 4), (2, 4), (4, 5)]
