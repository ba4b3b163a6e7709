"""The lock service against an oracle of strict 2PL's properties.

Seeded multi-site lock traffic — overlapping S/X sets, releases, cancels,
crashes that wipe a lock table, and deadlock victims whose abort hooks
re-enter the lock services — runs through the real services while the
oracle checks, at every lock-table call and after every activation:

* S/X compatibility: an item's holders are all S, or one X;
* FIFO grants among compatible waiters: a release grants the head of each
  queue it touches, in order, and a fresh request never jumps a queue;
* no waiter stays parked once its conflicts are gone: every queue head
  conflicts with a holder, and every parked acquisition not already
  resuming waits in the queue of its next item;

and the bookkeeping around them: ``parks`` counts the acquisitions that
did not finish at once, a granted acquisition no longer waits in the
deadlock detector, and each lock request and release adds its own cost
to ``ctx.cost``, one addition at a time.
"""

import random

import pytest

from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.system.deadlock import GlobalDeadlockDetector
from repro.txn.locks import LockManager, LockMode

SITES = 3
ITEMS = 6
TXNS = 10


def traffic_plan(seed: int, ops: int = 240) -> list[tuple]:
    """``(delay, kind, site, txn, requests, release_at_once, base_cost)``
    rows.  An activation starts at ``base_cost`` (a receive cost, say), so
    the lock costs added to it round as they do in a real handler."""
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


class Tally(float):
    """A ``ctx.cost`` that remembers every amount added to it."""

    added: tuple = ()

    def __add__(self, other):
        tally = Tally(float(self) + other)
        tally.added = self.added + (other,)
        return tally


def blocked(holders: dict, txn: int, mode: str) -> bool:
    """Whether a queue head must keep waiting: an S→X upgrade until its
    holder is alone, any other request until every holder's mode is S and
    so is its own."""
    if holders.get(txn) == "S" and mode == "X":
        return len(holders) > 1
    return bool(holders) and not (
        mode == "S" and all(m == "S" for m in holders.values())
    )


def check_table(manager: LockManager) -> dict:
    """Compatibility and stuck heads; returns item -> FIFO queue of txns."""
    queues = {}
    for item, holders, queue in manager.signature():
        modes = sorted(mode for _txn, mode in holders)
        assert modes in (["S"] * len(modes), ["X"]), (item, holders)
        assert not queue or blocked(dict(holders), *queue[0]), (item, holders, queue)
        queues[item] = [txn for txn, _mode in queue]
    return queues


@pytest.fixture
def lock_calls(monkeypatch):
    """Every ``LockManager`` request / release, checked as it happens;
    returns the list of calls made ("request" / "release")."""
    calls = []
    request, release_all = LockManager.request, LockManager.release_all

    def checked_request(manager, txn_id, item_id, mode):
        fresh = manager.held_mode(txn_id, item_id) is None
        jumps = fresh and check_table(manager).get(item_id)
        calls.append("request")
        grant = request(manager, txn_id, item_id, mode)
        assert not (jumps and grant.granted), "a fresh request jumped the queue"
        check_table(manager)
        return grant

    def checked_release(manager, txn_id):
        before = check_table(manager)
        calls.append("release")
        granted = release_all(manager, txn_id)
        after = check_table(manager)
        for item, queue in before.items():
            queue = [txn for txn in queue if txn != txn_id]
            newly = granted.get(item, [])
            assert newly == queue[: len(newly)], "grants skipped the queue head"
            assert after.get(item, []) == queue[len(newly):]
        return granted

    monkeypatch.setattr(LockManager, "request", checked_request)
    monkeypatch.setattr(LockManager, "release_all", checked_release)
    return calls


def run_traffic(plan, calls: list) -> tuple[list, GlobalDeadlockDetector, list]:
    config = SystemConfig(db_size=ITEMS, num_sites=SITES, max_txn_size=3, seed=1,
                          concurrency_control=True, cores=2)
    cluster = Cluster(config)
    detector = cluster.install_deadlock_detector()
    sites = cluster.sites
    cost_of = {"request": config.costs.lock_request_cost,
               "release": config.costs.lock_release_cost}
    parks = [0] * SITES
    log: list = []

    def check_services() -> None:
        for site, expected_parks in zip(sites, parks):
            service = site.lock_service
            assert service.parks == expected_parks
            queues = check_table(service.manager)
            for txn, parked in service._parked.items():
                if not parked.in_flight:  # else resumed, its activation due
                    item, _mode = parked.remaining[0]
                    assert txn in queues.get(item, ()), (site, txn)

    def abort_hook(txn):
        # A victim dies everywhere, from inside the detector's block().
        return lambda ctx: [site.lock_service.cancel(ctx, txn) for site in sites]

    def activation(kind, site_id, txn, requests, release_at_once, base_cost):
        service = sites[site_id].lock_service

        def run(ctx) -> None:
            ctx.cost = Tally(base_cost)
            first = len(calls)
            if kind == "acquire":
                detector.register(txn, abort_hook(txn))

                def continuation(ctx2) -> None:
                    assert site_id not in detector._waits.get(txn, {})
                    log.append(("granted", ctx2 is ctx))
                    if release_at_once:
                        service.release(ctx2, txn)

                logged = len(log)
                service.acquire(ctx, txn, requests, continuation)
                parks[site_id] += ("granted", True) not in log[logged:]
            elif kind == "release":
                service.release(ctx, txn)
            elif kind == "cancel":
                service.cancel(ctx, txn)
            else:
                service.wipe()
                log.append(("wipe",))
            assert ctx.cost.added == tuple(cost_of[call] for call in calls[first:])
            check_services()

        return run

    at = 0.0
    for delay, *row in plan:
        at += delay
        cluster.network.spawn(sites[row[1]], activation(*row), delay=at)
    cluster.scheduler.run()
    check_services()
    return log, detector, sites


@pytest.mark.parametrize("seed", range(12))
def test_fast_path_matches_the_parked_path(seed, lock_calls):
    log, detector, sites = run_traffic(traffic_plan(seed), lock_calls)
    # The traffic reaches every branch the oracle is for: grants at once
    # and after a wait, parks, victims, wiped lock tables.
    assert {row[1] for row in log if row[0] == "granted"} == {True, False}
    assert sum(site.lock_service.parks for site in sites) and detector.victims
    assert ("wipe",) in log


def test_unblock_without_a_wait_at_that_site_changes_nothing():
    detector = GlobalDeadlockDetector()
    for site, waiter, blockers in ((0, 1, (2, 3)), (1, 1, (4,)), (0, 2, (4,)), (1, 4, (5,))):
        detector.block(object(), site, waiter, blockers)

    def state():
        return (detector.edges(), dict(detector._waited_on), set(detector._suspects),
                {w: dict(s) for w, s in detector._waits.items()}, dict(detector._union))

    before = state()
    detector.unblock(2, 1)   # waits at sites 0 and 1 only
    detector.unblock(1, 2)   # waits at site 0 only
    detector.unblock(0, 9)   # waits nowhere
    assert state() == before
    detector.unblock(0, 1)
    assert detector.edges() == [(1, 4), (2, 4), (4, 5)]
