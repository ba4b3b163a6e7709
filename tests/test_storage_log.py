"""RedoLog specifics not covered by the database tests."""

from repro.storage.database import SiteDatabase
from repro.storage.log import LogRecord, RedoLog


def _fill(log: RedoLog, count: int) -> list[int]:
    return [log.append(i, 0, i, i + 1, i, i + 1, float(i)) for i in range(count)]


def test_lsns_are_dense_and_ordered():
    log = RedoLog()
    for i in range(5):
        lsn = log.append(
            txn_id=i, item_id=0, old_value=i, new_value=i + 1,
            old_version=i, new_version=i + 1, time=float(i),
        )
        assert lsn == i + 1
    assert [r.lsn for r in log.records] == [1, 2, 3, 4, 5]


def test_records_capture_before_and_after_images():
    log = RedoLog()
    lsn = log.append(7, 3, old_value=5, new_value=9, old_version=2,
                     new_version=3, time=4.5)
    (record,) = log.records
    assert record == LogRecord(lsn, 7, 3, 5, 9, 2, 3, 4.5)
    assert (record.old_value, record.new_value) == (5, 9)
    assert (record.old_version, record.new_version) == (2, 3)
    assert record.time == 4.5


def test_empty_log_queries():
    log = RedoLog()
    assert log.records == []
    assert len(log) == 0


def test_capacity_bounds_retained_records_but_lsns_keep_counting():
    log = RedoLog(capacity=3)
    # Every append still gets a dense lsn...
    assert _fill(log, 10) == list(range(1, 11))
    # ...but only the newest `capacity` records are retained; the older
    # ones are dropped.
    assert [r.lsn for r in log.records] == [8, 9, 10]
    assert [r.txn_id for r in log.records] == [7, 8, 9]
    assert len(log) == 3


def test_unbounded_log_drops_nothing():
    log = RedoLog()
    _fill(log, 50)
    assert len(log) == 50
    assert log.records[0].lsn == 1


def test_capacity_set_after_appends_keeps_the_newest():
    log = RedoLog()
    _fill(log, 10)
    log.capacity = 4
    assert log.capacity == 4
    assert [r.lsn for r in log.records] == [7, 8, 9, 10]
    # The window keeps sliding, and lsns keep counting.
    assert _fill(log, 2) == [11, 12]
    assert [r.lsn for r in log.records] == [9, 10, 11, 12]
    # Growing it again retains more from now on; nothing comes back.
    log.capacity = None
    _fill(log, 3)
    assert [r.lsn for r in log.records] == [9, 10, 11, 12, 13, 14, 15]


def test_capacity_survives_a_wipe():
    db = SiteDatabase(site_id=0, item_ids=range(3))
    db.log.capacity = 2
    db.apply_writes(1, [(0, 5, 1), (1, 6, 1), (2, 7, 1)], time=1.0)
    assert [r.item_id for r in db.log.records] == [1, 2]
    db.wipe()
    assert db.log.capacity == 2
    assert len(db.log) == 0
    db.apply_writes(2, [(0, 8, 2), (1, 9, 2), (2, 10, 2)], time=2.0)
    # A wiped log starts over: lsns from 1, the newest two retained.
    assert [(r.lsn, r.item_id) for r in db.log.records] == [(2, 1), (3, 2)]
