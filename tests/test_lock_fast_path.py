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
deadlock detector, and each lock the service requests and each release
adds its own cost to ``ctx.cost``, one addition at a time — whether the
request reaches the lock table or, shareable, stays in the step's scope.

A scope holds SHARED grants only while its step runs: the table never
disagrees with one (no X holder, no queue on its items), every table
request made during one records it first, and none outlives its
activation.
"""

import copy
import random
from types import SimpleNamespace

import pytest

from conftest import lock_table
from repro.net.endpoint import HandlerContext
from repro.site.locking import SiteLockService
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


def shareable_oracle(manager: LockManager, txn: int, requests) -> bool:
    """``LockManager.shareable`` from the table's signature: all S, the
    transaction holds and waits for nothing, no item has an X holder or
    a queue."""
    table = lock_table(manager)
    if any(txn in holders or txn in queue for holders, queue in table.values()):
        return False
    for item, mode in requests:
        holders, queue = table.get(item, ({}, []))
        if mode is not LockMode.SHARED or queue or "X" in holders.values():
            return False
    return True


def check_scope(service: SiteLockService) -> None:
    """A scope's items have no X holder and no queue in the table."""
    scope = service._scope
    if scope is not None:
        table = lock_table(service.manager)
        for item, _mode in scope.grants:
            holders, queue = table.get(item, ({}, []))
            assert "X" not in holders.values() and not queue, (item, holders, queue)


@pytest.fixture
def lock_calls(monkeypatch):
    """Every lock-table request / release checked as it happens, and the
    lock service's own requests and releases counted as it charges them.

    Returns ``calls`` — the service-level "request" / "release" list: a
    request on the table counts unless it records a scope (charged when
    the scope began), a shareable acquisition counts one request per lock
    — and ``services``, to be filled with the services under test."""
    calls = []
    services = []
    recording = []
    request, release_all = LockManager.request, LockManager.release_all
    shareable, record = LockManager.shareable, SiteLockService._record
    release = SiteLockService.release

    def checked_request(manager, txn_id, item_id, mode):
        if not recording:
            calls.append("request")
            # A request made while a step holds a scope records it first.
            assert all(s._scope is None for s in services if s.manager is manager)
        fresh = manager.held_mode(txn_id, item_id) is None
        jumps = fresh and check_table(manager).get(item_id)
        grant = request(manager, txn_id, item_id, mode)
        assert not (jumps and grant.granted), "a fresh request jumped the queue"
        check_table(manager)
        return grant

    def checked_release_all(manager, txn_id):
        before = check_table(manager)
        granted = release_all(manager, txn_id)
        after = check_table(manager)
        for item, queue in before.items():
            queue = [txn for txn in queue if txn != txn_id]
            newly = granted.get(item, [])
            assert newly == queue[: len(newly)], "grants skipped the queue head"
            assert after.get(item, []) == queue[len(newly):]
        return granted

    def checked_shareable(manager, txn_id, requests):
        scoped = shareable(manager, txn_id, requests)
        assert scoped == shareable_oracle(manager, txn_id, requests)
        if scoped:
            calls.extend(["request"] * len(requests))
        return scoped

    def counted_record(service, scope):
        recording.append(scope)
        try:
            record(service, scope)
        finally:
            recording.pop()
        check_table(service.manager)

    def counted_release(service, ctx, txn_id):
        calls.append("release")
        release(service, ctx, txn_id)

    monkeypatch.setattr(LockManager, "request", checked_request)
    monkeypatch.setattr(LockManager, "release_all", checked_release_all)
    monkeypatch.setattr(LockManager, "shareable", checked_shareable)
    monkeypatch.setattr(SiteLockService, "_record", counted_record)
    monkeypatch.setattr(SiteLockService, "release", counted_release)
    return SimpleNamespace(calls=calls, services=services)


def run_traffic(plan, lock_calls) -> tuple[list, GlobalDeadlockDetector, list]:
    config = SystemConfig(db_size=ITEMS, num_sites=SITES, max_txn_size=3, seed=1,
                          concurrency_control=True, cores=2)
    cluster = Cluster(config)
    detector = cluster.install_deadlock_detector()
    sites = cluster.sites
    calls = lock_calls.calls
    lock_calls.services.extend(site.lock_service for site in sites)
    cost_of = {"request": config.costs.lock_request_cost,
               "release": config.costs.lock_release_cost}
    parks = [0] * SITES
    log: list = []

    def check_services() -> None:
        for site, expected_parks in zip(sites, parks):
            service = site.lock_service
            assert service._scope is None  # no scope outlives its step
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
                    check_scope(service)
                    scope = service._scope
                    log.append(("granted", ctx2 is ctx,
                                scope is not None and scope.txn_id == txn))
                    if release_at_once:
                        service.release(ctx2, txn)

                logged = len(log)
                service.acquire(ctx, txn, requests, continuation)
                parks[site_id] += not any(
                    row[:2] == ("granted", True) for row in log[logged:]
                )
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
    # (in a scope and on the table) and after a wait, parks, victims,
    # wiped lock tables.
    granted = {row[1:] for row in log if row[0] == "granted"}
    assert granted == {(True, True), (True, False), (False, False)}
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


@pytest.mark.parametrize("seed", range(4))
def test_scoped_traffic_matches_recorded_traffic(seed, lock_calls, monkeypatch):
    """The same traffic with every acquisition on the table: the same
    grants, parks, victims and final tables."""

    def outcome():
        lock_calls.calls.clear()
        lock_calls.services.clear()
        log, detector, sites = run_traffic(traffic_plan(seed), lock_calls)
        return (
            [row[:2] for row in log],
            detector.victims,
            detector.edges(),
            [site.lock_service.parks for site in sites],
            [site.lock_service.manager.signature() for site in sites],
        )

    scoped = outcome()
    monkeypatch.setattr(LockManager, "shareable", lambda *_args: False)
    assert outcome() == scoped


def lock_site(seed: int):
    """A concurrency-controlled site whose table holds seeded S and X
    locks and waits (transactions 1-6), with its detector."""
    config = SystemConfig(db_size=ITEMS, num_sites=SITES, max_txn_size=3, seed=1,
                          concurrency_control=True)
    cluster = Cluster(config)
    detector = cluster.install_deadlock_detector()
    site = cluster.sites[0]
    rng = random.Random(seed)
    for txn in range(1, 7):
        requests = [
            (rng.randrange(ITEMS), rng.choice((LockMode.SHARED, LockMode.EXCLUSIVE)))
            for _ in range(rng.randint(1, 3))
        ]
        site.lock_service.acquire(
            HandlerContext(cluster.network, site), txn, requests, lambda _ctx: None
        )
    return cluster, site, detector


def shared_requests(rng: random.Random) -> list[tuple[int, LockMode]]:
    items = rng.sample(range(ITEMS), rng.randint(1, 3))
    return [(item, LockMode.SHARED) for item in items]


@pytest.mark.parametrize("release_in_step", (True, False))
def test_a_scope_leaves_the_table_as_plain_requests_would(release_in_step):
    """Released inside its step, a scope leaves ``signature()`` as it was;
    still held when the step returns, it leaves exactly the entries plain
    ``request`` calls make.  The abort hook is registered only then."""
    scoped = 0
    for seed in range(40):
        cluster, site, detector = lock_site(seed)
        service = site.lock_service
        rng = random.Random(1000 + seed)
        requests = shared_requests(rng)
        txn = 99
        if not service.manager.shareable(txn, requests):
            continue
        scoped += 1
        before = service.manager.signature()
        plain = copy.deepcopy(service.manager)
        for item, mode in sorted(requests):
            plain.request(txn, item, mode)
        ctx = HandlerContext(cluster.network, site)
        seen = []

        def step(ctx2, txn=txn, service=service, before=before, seen=seen):
            # The table shows nothing of the scope while it runs.
            assert service._scope.txn_id == txn
            assert service.manager.signature() == before
            seen.append(ctx2)
            if release_in_step:
                service.release(ctx2, txn)

        service.acquire(ctx, txn, requests, step, lambda _ctx: None)
        assert seen == [ctx] and service._scope is None
        costs = site.costs
        expected_cost = costs.lock_request_cost * len(requests)
        if release_in_step:
            expected_cost += costs.lock_release_cost
            assert service.manager.signature() == before
        else:
            assert service.manager.signature() == plain.signature()
        assert ctx.cost == pytest.approx(expected_cost)
        assert (txn in detector._abort_fns) is not release_in_step
    assert scoped >= 10


def test_an_acquisition_during_a_scoped_step_is_recorded():
    """A second transaction asking inside a scoped step sees the scope's
    S lock: the scope is recorded first, and the X request parks behind
    it, reported to the detector."""
    config = SystemConfig(db_size=ITEMS, num_sites=SITES, max_txn_size=3, seed=1,
                          concurrency_control=True)
    cluster = Cluster(config)
    detector = cluster.install_deadlock_detector()
    site = cluster.sites[0]
    service = site.lock_service
    ctx = HandlerContext(cluster.network, site)
    resumed = []

    def outer(ctx2):
        assert service._scope is not None
        service.acquire(ctx2, 2, [(3, LockMode.EXCLUSIVE)], resumed.append)
        assert service._scope is None
        assert lock_table(service.manager) == {3: ({1: "S"}, [2])}

    service.acquire(ctx, 1, [(3, LockMode.SHARED)], outer, lambda _ctx: None)
    assert service.parks == 1 and resumed == []
    assert detector.edges() == [(2, 1)]
    assert 1 in detector._abort_fns  # recorded, so it can be a victim
    assert lock_table(service.manager) == {3: ({1: "S"}, [2])}
    service.release(ctx, 1)
    cluster.scheduler.run()
    assert len(resumed) == 1
    assert lock_table(service.manager) == {3: ({2: "X"}, [])}
