"""SiteDatabase: staging, commit, abort, copier installs, redo log."""

import pytest

from repro.errors import StorageError, UnknownItemError
from repro.storage.database import SiteDatabase
from repro.storage.item import DataItem

from conftest import copies


@pytest.fixture
def db() -> SiteDatabase:
    return SiteDatabase(site_id=0, item_ids=range(5))


def test_initial_state(db):
    assert len(db) == 5
    assert copies(db) == dict.fromkeys(range(5), (0, 0))
    assert db.read(3) == 0
    assert db.version(3) == 0


def test_unknown_item_raises(db):
    with pytest.raises(UnknownItemError):
        db.read(99)


def test_contains(db):
    assert 2 in db
    assert 9 not in db


def test_stage_then_abort_discards(db):
    db.stage(7, [(1, 111, 7)])
    assert db.signature()[1] == ((7, ((1, 111, 7),)),)
    assert db.read(1) == 0  # staged, not visible
    db.abort_staged(7)
    assert db.read(1) == 0
    assert db.signature()[1] == ()


def test_abort_without_stage_is_noop(db):
    db.abort_staged(99)


def test_double_stage_rejected(db):
    db.stage(7, [(1, 111, 7)])
    with pytest.raises(StorageError):
        db.stage(7, [(2, 222, 7)])


def test_stage_validates_items(db):
    with pytest.raises(UnknownItemError):
        db.stage(7, [(99, 1, 7)])


def test_apply_write_direct(db):
    assert db.apply_writes(5, [(3, 42, 5)], time=1.0) == [3]
    assert db.read(3) == 42
    assert db.version(3) == 5


def test_apply_writes_skips_items_not_held(db):
    # Partial replication: a transaction may write items this site lacks.
    updates = [(9, 1, 5), (1, 11, 5), (7, 1, 5), (0, 10, 5)]
    assert db.apply_writes(5, updates, time=1.0) == [1, 0]
    dump = copies(db)
    assert (dump[1], dump[0]) == ((11, 5), (10, 5))
    assert [r.item_id for r in db.log.records] == [1, 0]


def test_install_copy_advances_version(db):
    assert db.install_copy(2, 99, 4, time=1.0)
    assert db.read(2) == 99


def test_install_copy_refuses_stale(db):
    db.apply_writes(9, [(2, 100, 9)], time=1.0)
    assert not db.install_copy(2, 55, 4, time=2.0)
    assert db.read(2) == 100  # unchanged


def test_install_copy_refuses_equal_version(db):
    db.apply_writes(4, [(2, 100, 4)], time=1.0)
    assert not db.install_copy(2, 55, 4, time=2.0)


def test_create_and_drop_item(db):
    db.create_item(10, 5, 3)
    assert db.read(10) == 5
    db.drop_item(10)
    assert 10 not in db


def test_create_existing_item_rejected(db):
    with pytest.raises(StorageError):
        db.create_item(1, 0, 0)


def test_drop_missing_item_rejected(db):
    with pytest.raises(UnknownItemError):
        db.drop_item(42)


def test_redo_log_records_writes(db):
    db.apply_writes(5, [(1, 10, 5)], time=1.0)
    db.apply_writes(6, [(1, 20, 6)], time=2.0)
    records = db.log.records
    assert [(r.txn_id, r.item_id) for r in records] == [(5, 1), (6, 1)]
    assert records[0].old_value == 0 and records[0].new_value == 10
    assert records[1].old_value == 10 and records[1].new_value == 20
    assert records[0].lsn < records[1].lsn
    assert records[1].new_version == 6


def test_dump_snapshot(db):
    db.apply_writes(3, [(0, 7, 3)], time=1.0)
    dump = copies(db)
    assert dump[0] == (7, 3)
    assert dump[4] == (0, 0)


def test_snapshot_tuple(db):
    db.apply_writes(4, [(2, 9, 4)], time=1.0)
    assert db.snapshots([2, 0]) == [(2, 9, 4), (0, 0, 0)]
    with pytest.raises(UnknownItemError):
        db.snapshots([1, 99])
    assert db.get(2) == DataItem(item_id=2, value=9, version=4)
