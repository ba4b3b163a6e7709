"""Statistics, counters, collector, and availability analysis."""

import pytest

from repro.metrics.availability import availability_of
from repro.metrics.collector import MetricsCollector
from repro.metrics.counters import CounterSet
from repro.metrics.records import ControlRecord, FailLockSample, TxnRecord
from repro.metrics.stats import mean, median, percentile, stddev, summarize
from repro.txn.transaction import AbortReason


# -- stats ---------------------------------------------------------------------


def test_mean_median_basic():
    assert mean([1, 2, 3]) == 2.0
    assert median([1, 2, 3, 100]) == 2.5
    assert median([5]) == 5


def test_empty_inputs_are_zero():
    assert mean([]) == 0.0
    assert median([]) == 0.0
    assert stddev([]) == 0.0
    assert percentile([], 50) == 0.0
    assert summarize([]).count == 0


def test_stddev():
    assert stddev([2, 2, 2]) == 0.0
    assert stddev([0, 10]) == pytest.approx(5.0)


def test_percentile_interpolates():
    values = [0, 10, 20, 30, 40]
    assert percentile(values, 0) == 0
    assert percentile(values, 100) == 40
    assert percentile(values, 50) == 20
    assert percentile(values, 25) == 10
    assert percentile(values, 12.5) == pytest.approx(5.0)


def test_percentile_validates_range():
    with pytest.raises(ValueError):
        percentile([1], 101)


def test_summarize():
    s = summarize([1, 2, 3, 4])
    assert s.count == 4
    assert s.mean == 2.5
    assert s.minimum == 1 and s.maximum == 4


# -- counters --------------------------------------------------------------------


def test_counters_incr_and_get():
    c = CounterSet()
    assert c.incr("x") == 1
    assert c.incr("x", 4) == 5
    assert c["x"] == 5
    assert c["missing"] == 0


def test_counters_reject_negative():
    with pytest.raises(ValueError):
        CounterSet().incr("x", -1)


def test_counters_reset_and_dict():
    c = CounterSet()
    c.incr("a")
    assert c.as_dict() == {"a": 1}
    assert c["b"] == 0


# -- collector ---------------------------------------------------------------------


def make_txn(seq, committed=True, copiers=0, coord_elapsed=100.0):
    return TxnRecord(
        txn_id=seq,
        seq=seq,
        coordinator=0,
        committed=committed,
        abort_reason=AbortReason.NONE if committed else AbortReason.COPY_UNAVAILABLE,
        size=3,
        items_read=1,
        items_written=1,
        submitted_at=0.0,
        finished_at=coord_elapsed,
        coordinator_elapsed=coord_elapsed,
        copiers_requested=copiers,
    )


def test_collector_txn_accounting():
    c = MetricsCollector()
    c.record_txn(make_txn(1))
    c.record_txn(make_txn(2, committed=False))
    assert c.counters["txns"] == 2
    assert c.counters["commits"] == 1
    assert c.counters["aborts"] == 1
    assert len(c.committed) == 1


def test_collector_coordinator_time_filters():
    c = MetricsCollector()
    c.record_txn(make_txn(1, copiers=0, coord_elapsed=100))
    c.record_txn(make_txn(2, copiers=1, coord_elapsed=250))
    assert c.coordinator_times() == [100, 250]
    assert c.coordinator_times(with_copiers=True) == [250]
    assert c.coordinator_times(with_copiers=False) == [100]


def test_collector_participant_staging():
    c = MetricsCollector()
    c.note_participant(5, 1, 90.0)
    c.note_participant(5, 2, 95.0)
    assert c.pop_participants(5) == {1: 90.0, 2: 95.0}
    assert c.pop_participants(5) == {}


def test_collector_control_times():
    c = MetricsCollector()
    c.record_control(ControlRecord(1, 0, "recovering", 0.0, 190.0))
    c.record_control(ControlRecord(1, 1, "operational", 0.0, 50.0))
    c.record_control(ControlRecord(2, 1, "operational", 10.0, 78.0))
    assert c.control_times(1) == [190.0, 50.0]
    assert c.control_times(1, "recovering") == [190.0]
    assert c.control_times(2) == [68.0]
    assert c.counters["control_type1"] == 2


def test_collector_faillock_series():
    c = MetricsCollector()
    c.record_faillock_sample(FailLockSample(seq=1, time=0.0, locks_per_site={0: 3, 1: 0}))
    c.record_faillock_sample(FailLockSample(seq=2, time=1.0, locks_per_site={0: 5, 1: 1}))
    assert c.faillock_series(0) == [(1, 3), (2, 5)]
    assert c.faillock_series(1) == [(1, 0), (2, 1)]


# -- availability analysis -----------------------------------------------------------


def samples(values):
    return [
        FailLockSample(seq=i + 1, time=float(i), locks_per_site={0: v})
        for i, v in enumerate(values)
    ]


def test_availability_peak_and_recovery():
    # Rise to 30, plateau, then decay to zero.
    series = [10, 20, 30, 30, 25, 15, 5, 0, 0]
    report = availability_of(samples(series), 0, db_size=50)
    assert report.peak_locks == 30
    assert report.peak_seq == 4          # end of the plateau
    assert report.recovery_end_seq == 8
    assert report.txns_to_recover == 4
    assert report.min_availability == pytest.approx(1 - 30 / 50)


def test_availability_no_failure():
    report = availability_of(samples([0, 0, 0]), 0, db_size=50)
    assert report.peak_locks == 0
    assert report.min_availability == 1.0


def test_availability_unrecovered():
    report = availability_of(samples([10, 20, 20, 18]), 0, db_size=50)
    assert report.recovery_end_seq == -1
    assert report.txns_to_recover == -1


def test_availability_clearing_buckets():
    series = [20, 20, 12, 9, 5, 0]
    report = availability_of(samples(series), 0, db_size=50, bucket=10)
    # Bucket edges at 10 and 0 locks remaining.
    remaining = [r for r, _t in report.clearing_buckets]
    assert remaining == [10, 0]


def test_availability_empty_samples():
    report = availability_of([], 0, db_size=50)
    assert report.peak_locks == 0
    assert report.recovery_end_seq == -1
