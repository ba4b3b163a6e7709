"""SiteLockService and GlobalDeadlockDetector unit behaviour."""

import pytest

from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.system.deadlock import GlobalDeadlockDetector
from repro.txn.locks import LockMode

from conftest import lock_table


def make_site():
    config = SystemConfig(
        db_size=6, num_sites=2, max_txn_size=3, seed=1, concurrency_control=True
    )
    cluster = Cluster(config)
    return cluster, cluster.site(0)


def test_fast_path_runs_synchronously():
    cluster, site = make_site()
    ran = []
    cluster.network.spawn(
        site,
        lambda ctx: site.lock_service.acquire(
            ctx, 1, [(0, LockMode.EXCLUSIVE)], lambda c: ran.append("now")
        ),
    )
    cluster.scheduler.run()
    assert ran == ["now"]
    assert site.lock_service.parks == 0
    assert lock_table(site.lock_service.manager) == {0: ({1: "X"}, [])}


def test_conflict_parks_then_resumes_on_release():
    cluster, site = make_site()
    order = []

    def txn1(ctx):
        site.lock_service.acquire(
            ctx, 1, [(0, LockMode.EXCLUSIVE)], lambda c: order.append("t1")
        )

    def txn2(ctx):
        site.lock_service.acquire(
            ctx, 2, [(0, LockMode.EXCLUSIVE)], lambda c: order.append("t2")
        )

    def release1(ctx):
        site.lock_service.release(ctx, 1)

    cluster.network.spawn(site, txn1)
    cluster.network.spawn(site, txn2, delay=1.0)
    cluster.network.spawn(site, release1, delay=10.0)
    cluster.scheduler.run()
    assert order == ["t1", "t2"]
    assert site.lock_service.parks == 1
    assert lock_table(site.lock_service.manager) == {0: ({2: "X"}, [])}


def test_multi_item_acquisition_in_order():
    cluster, site = make_site()
    granted = []
    cluster.network.spawn(
        site,
        lambda ctx: site.lock_service.acquire(
            ctx,
            1,
            [(3, LockMode.SHARED), (1, LockMode.EXCLUSIVE)],
            lambda c: granted.append(lock_table(site.lock_service.manager)),
        ),
    )
    cluster.scheduler.run()
    assert granted == [{1: ({1: "X"}, []), 3: ({1: "S"}, [])}]


def test_cancel_drops_parked_request():
    cluster, site = make_site()
    ran = []

    def txn1(ctx):
        site.lock_service.acquire(ctx, 1, [(0, LockMode.EXCLUSIVE)], lambda c: None)

    def txn2(ctx):
        site.lock_service.acquire(
            ctx, 2, [(0, LockMode.EXCLUSIVE)], lambda c: ran.append("t2")
        )

    cluster.network.spawn(site, txn1)
    cluster.network.spawn(site, txn2, delay=1.0)
    cluster.network.spawn(site, lambda ctx: site.lock_service.cancel(ctx, 2), delay=5.0)
    cluster.network.spawn(site, lambda ctx: site.lock_service.release(ctx, 1), delay=10.0)
    cluster.scheduler.run()
    assert ran == []  # the cancelled continuation never fires
    assert lock_table(site.lock_service.manager) == {}


# -- detector ---------------------------------------------------------------------


class _FakeCtx:
    """block()/abort hooks only need a context-shaped object."""

    def charge(self, ms):
        pass


def test_detector_per_site_waits():
    det = GlobalDeadlockDetector()
    ctx = _FakeCtx()
    det.block(ctx, 0, 1, (2,))
    det.block(ctx, 1, 1, (3,))
    assert det.edges() == [(1, 2), (1, 3)]
    # Unblocking at site 0 keeps the wait at site 1 (the earlier bug).
    det.unblock(0, 1)
    assert det.edges() == [(1, 3)]
    det.unblock(1, 1)
    assert det.edges() == []


def test_detector_finds_cross_site_cycle():
    det = GlobalDeadlockDetector()
    ctx = _FakeCtx()
    aborted = []
    det.register(1, lambda c: aborted.append(1))
    det.register(2, lambda c: aborted.append(2))
    det.block(ctx, 0, 1, (2,))
    assert det.deadlocks_found == 0
    det.block(ctx, 1, 2, (1,))
    assert det.deadlocks_found == 1
    assert aborted == [2]  # youngest in the cycle
    # The victim's state is gone.
    assert (2, 1) not in det.edges()


def test_detector_forget_clears_everything():
    det = GlobalDeadlockDetector()
    ctx = _FakeCtx()
    det.register(5, lambda c: None)
    det.block(ctx, 0, 5, (6,))
    det.forget(5)
    assert det.edges() == []


def test_detector_ignores_self_waits():
    det = GlobalDeadlockDetector()
    det.block(_FakeCtx(), 0, 1, (1,))
    assert det.edges() == []


def test_detector_victim_without_hook_is_tolerated():
    det = GlobalDeadlockDetector()
    ctx = _FakeCtx()
    det.block(ctx, 0, 1, (2,))
    det.block(ctx, 0, 2, (1,))  # cycle; victim 2 has no hook
    assert det.deadlocks_found == 1
    assert det.victims == [2]
