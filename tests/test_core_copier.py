"""Copier transaction helpers."""

import pytest

from repro.core import copier
from repro.core.faillocks import FailLockTable
from repro.core.rowaa import RowaaPlanner
from repro.core.sessions import NominalSessionVector
from repro.storage.catalog import ReplicationCatalog
from repro.storage.database import SiteDatabase


@pytest.fixture
def world():
    sites = [0, 1, 2]
    items = list(range(4))
    nsv = NominalSessionVector(owner=0, site_ids=sites)
    locks = FailLockTable(site_ids=sites, item_ids=items)
    catalog = ReplicationCatalog.fully_replicated(items, sites)
    db = SiteDatabase(0, items)
    planner = RowaaPlanner(0, nsv, locks, catalog)
    return nsv, locks, db, planner


def test_choose_source_per_item(world):
    _nsv, locks, _db, planner = world
    locks.set_lock(0, 0)
    locks.set_lock(1, 0)
    locks.set_lock(1, 1)
    sources = copier.choose_copier_source(planner, [0, 1])
    assert sources == {0: 1, 1: 2}


def test_choose_source_reports_unavailable(world):
    nsv, locks, _db, planner = world
    locks.set_lock(0, 0)
    nsv.mark_down(1)
    nsv.mark_down(2)
    assert copier.choose_copier_source(planner, [0]) == {0: -1}


def test_request_payload_sorted():
    assert copier.build_copy_request([3, 1, 2]) == {"items": [1, 2, 3]}


def test_response_payload_carries_snapshots(world):
    _nsv, _locks, db, _planner = world
    db.apply_writes(5, [(1, 77, 5)], time=1.0)
    payload = copier.build_copy_response(db, [1, 0])
    assert payload["copies"] == [(0, 0, 0), (1, 77, 5)]


def test_apply_response_installs_and_clears(world):
    _nsv, locks, db, _planner = world
    locks.set_lock(1, 0)
    refreshed = copier.apply_copy_response(
        db, locks, owner=0, copies=[(1, 99, 7)], time=2.0
    )
    assert refreshed == [1]
    assert db.read(1) == 99
    assert not locks.is_locked(1, 0)


def test_apply_response_clears_even_if_local_newer(world):
    _nsv, locks, db, _planner = world
    locks.set_lock(1, 0)
    db.apply_writes(9, [(1, 100, 9)], time=1.0)
    refreshed = copier.apply_copy_response(
        db, locks, owner=0, copies=[(1, 50, 5)], time=2.0
    )
    assert refreshed == []          # stale copy not installed
    assert db.read(1) == 100
    assert not locks.is_locked(1, 0)  # but the lock is resolved


def test_clear_notice_roundtrip(world):
    _nsv, locks, _db, _planner = world
    locks.set_lock(2, 0)
    locks.set_lock(3, 0)
    notice = copier.build_clear_notice(0, [3, 2])
    assert notice == {"site": 0, "items": [2, 3]}
    cleared = copier.apply_clear_notice(locks, notice)
    assert cleared == 2
    assert locks.count_for(0) == 0


def test_clear_notice_ignores_already_clear(world):
    _nsv, locks, _db, _planner = world
    assert copier.apply_clear_notice(locks, {"site": 0, "items": [1]}) == 0
