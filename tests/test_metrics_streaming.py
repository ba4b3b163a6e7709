"""Streaming aggregation layer (repro.metrics.streaming).

StreamingStats is checked against the exact batch statistics it
replaces; the reservoir, windowed series, and sink are checked for the
determinism and bounded-memory contracts the soak engine relies on.
"""

import math
import random
import statistics

import pytest

from repro.metrics.records import TxnRecord
from repro.metrics.streaming import (
    LatencyDigest,
    ReservoirSample,
    StreamingStats,
    StreamingTxnSink,
    Window,
    WindowedSeries,
)
from repro.txn.transaction import AbortReason


@pytest.fixture
def rng() -> random.Random:
    return random.Random(9001)


# -- StreamingStats -----------------------------------------------------------


def test_streaming_stats_matches_exact_moments(rng):
    values = [rng.uniform(-50.0, 200.0) for _ in range(2500)]
    stats = StreamingStats()
    for v in values:
        stats.add(v)
    assert stats.count == len(values)
    assert stats.mean == pytest.approx(statistics.fmean(values))
    assert stats.stddev == pytest.approx(statistics.pstdev(values))
    assert stats.minimum == min(values)
    assert stats.maximum == max(values)


def test_streaming_stats_empty_and_singleton():
    stats = StreamingStats()
    assert stats.count == 0
    assert stats.variance == 0.0
    stats.add(7.0)
    assert stats.mean == 7.0
    assert stats.variance == 0.0  # population variance undefined-as-zero


# -- LatencyDigest ------------------------------------------------------------


def test_latency_digest_summary_fields(rng):
    digest = LatencyDigest(rel_err=0.01)
    values = [rng.uniform(1.0, 500.0) for _ in range(3000)]
    for v in values:
        digest.add(v)
    summary = digest.to_summary()
    assert summary.count == len(values)
    assert summary.mean == pytest.approx(statistics.fmean(values))
    assert summary.minimum == min(values)
    assert summary.maximum == max(values)
    ordered = sorted(values)
    # Sketch-backed percentiles honor the documented relative-error bound.
    assert summary.median == pytest.approx(ordered[len(ordered) // 2], rel=0.05)
    assert summary.p95 == pytest.approx(
        ordered[math.floor(0.95 * (len(ordered) - 1))], rel=0.05
    )


def test_latency_digest_empty_summary_is_zeroed():
    summary = LatencyDigest().to_summary()
    assert summary.count == 0
    assert summary.mean == 0.0
    assert summary.p95 == 0.0


# -- ReservoirSample ----------------------------------------------------------


def test_reservoir_never_exceeds_k(rng):
    reservoir = ReservoirSample(10, rng)
    for i in range(500):
        reservoir.offer(i)
    assert len(reservoir) == 10
    assert reservoir.seen == 500
    assert all(0 <= item < 500 for item in reservoir.items)
    assert len(set(reservoir.items)) == 10  # distinct inputs stay distinct


def test_reservoir_keeps_everything_under_k(rng):
    reservoir = ReservoirSample(10, rng)
    for i in range(7):
        reservoir.offer(i)
    assert reservoir.items == list(range(7))


def test_reservoir_is_deterministic_per_seed():
    runs = []
    for _ in range(2):
        reservoir = ReservoirSample(5, random.Random(123))
        for i in range(300):
            reservoir.offer(i)
        runs.append(list(reservoir.items))
    assert runs[0] == runs[1]
    other = ReservoirSample(5, random.Random(124))
    for i in range(300):
        other.offer(i)
    assert other.items != runs[0]


def test_reservoir_k_zero_counts_but_keeps_nothing(rng):
    reservoir = ReservoirSample(0, rng)
    for i in range(50):
        reservoir.offer(i)
    assert len(reservoir) == 0
    assert reservoir.seen == 50


def test_reservoir_rejects_negative_k(rng):
    with pytest.raises(ValueError):
        ReservoirSample(-1, rng)


# -- WindowedSeries -----------------------------------------------------------


def test_windows_are_contiguous_across_quiet_spans():
    series = WindowedSeries(100.0)
    series.note_arrival(50.0)
    series.note_arrival(950.0)  # windows 1..8 are quiet but must exist
    assert len(series) == 10
    assert [w.index for w in series.windows] == list(range(10))
    assert [w.start_ms for w in series.windows] == [i * 100.0 for i in range(10)]
    assert series.windows[0].arrivals == 1
    assert all(w.arrivals == 0 for w in series.windows[1:9])
    assert series.windows[9].arrivals == 1


def test_window_done_and_availability():
    series = WindowedSeries(100.0)
    series.note_done(10.0, committed=True, latency_ms=5.0)
    series.note_done(20.0, committed=True, latency_ms=7.0)
    series.note_done(30.0, committed=False, latency_ms=None)
    window = series.windows[0]
    assert window.done == 3
    assert window.availability == pytest.approx(2.0 / 3.0)
    assert window.latency.count == 2  # None latency not aggregated
    assert window.latency.mean == pytest.approx(6.0)


def test_empty_window_availability_is_none():
    assert Window(0, 0.0).availability is None


def test_on_open_fires_once_per_window_in_order():
    opened = []
    series = WindowedSeries(50.0, on_open=lambda w: opened.append(w.index))
    series.note_arrival(175.0)  # creates windows 0..3 at once
    series.note_arrival(20.0)  # window 0 already exists: no new callback
    assert opened == [0, 1, 2, 3]


def test_windowed_series_rejects_bad_width():
    with pytest.raises(ValueError):
        WindowedSeries(0.0)


# -- StreamingTxnSink ---------------------------------------------------------


def _record(txn_id, committed, submitted_at, finished_at,
            reason=AbortReason.NONE, size=3):
    return TxnRecord(
        txn_id=txn_id,
        seq=txn_id,
        coordinator=txn_id % 4,
        committed=committed,
        abort_reason=reason,
        size=size,
        items_read=size - 1,
        items_written=1,
        submitted_at=submitted_at,
        finished_at=finished_at,
        coordinator_elapsed=finished_at - submitted_at,
    )


def test_sink_aggregates_without_retaining_records():
    sink = StreamingTxnSink(window_ms=100.0)
    latencies = []
    for i in range(40):
        committed = i % 4 != 0
        start = i * 25.0
        latency = 10.0 + i
        if committed:
            latencies.append(latency)
        reason = AbortReason.NONE if committed else AbortReason.PARTICIPANT_TIMEOUT
        sink(_record(i, committed, start, start + latency, reason=reason))
    assert sink.latency_all.count == 40
    assert sink.latency_committed.count == len(latencies)
    assert sink.latency_committed.stats.mean == pytest.approx(
        statistics.fmean(latencies)
    )
    assert sink.abort_count("participant_timeout") == 10
    assert sink.abort_count("copy_unavailable") == 0
    # Nothing record-shaped is retained anywhere on the sink.
    assert not hasattr(sink, "records")


def test_sink_exemplars_are_bounded_and_compact():
    sink = StreamingTxnSink(
        window_ms=100.0, exemplar_k=5, exemplar_rng=random.Random(7)
    )
    for i in range(100):
        sink(_record(i, committed=True, submitted_at=i * 10.0,
                     finished_at=i * 10.0 + 4.0))
    assert len(sink.exemplars) == 5
    assert sink.exemplars.seen == 100
    exemplar = sink.exemplars.items[0]
    assert set(exemplar) == {
        "txn", "coordinator", "committed", "abort_reason", "size",
        "submitted_at", "latency_ms",
    }
    assert exemplar["abort_reason"] is None  # NONE renders as null


@pytest.mark.parametrize("k", [0, 1, 5, 20])
def test_reservoir_builds_only_what_it_keeps(k):
    # offer(item, build) must sample exactly as offering build(item) does:
    # the same draws in the same order, the same items kept.
    built = []

    def build(item):
        built.append(item)
        return ("built", item)

    eager = ReservoirSample(k, random.Random(31))
    lazy = ReservoirSample(k, random.Random(31))
    for i in range(2_000):
        eager.offer(("built", i))
        lazy.offer(i, build)
    assert lazy.items == eager.items
    assert lazy.seen == eager.seen == 2_000
    assert lazy._rng.getstate() == eager._rng.getstate()
    # Each item that entered the reservoir was built once; no other was.
    replay = random.Random(31)
    entered = list(range(k)) + [
        i for i in range(k, 2_000) if k and replay.randrange(i + 1) < k
    ]
    assert built == entered


def test_sink_exemplars_match_eager_sampling():
    from repro.metrics.streaming import _exemplar_of

    records = [
        _record(i, committed=i % 3 != 0, submitted_at=i * 10.0,
                finished_at=i * 10.0 + 4.0 + i % 7,
                reason=AbortReason.NONE if i % 3 else AbortReason.COPY_UNAVAILABLE)
        for i in range(1_000)
    ]
    sink = StreamingTxnSink(
        window_ms=100.0, exemplar_k=20, exemplar_rng=random.Random(42)
    )
    eager = ReservoirSample(20, random.Random(42))
    for record in records:
        sink(record)
        eager.offer(_exemplar_of(record))
    assert sink.exemplars.items == eager.items
    assert sink.exemplars._rng.getstate() == eager._rng.getstate()


def test_sink_requires_rng_when_sampling():
    with pytest.raises(ValueError):
        StreamingTxnSink(exemplar_k=5)


def test_sink_arrivals_and_completions_land_in_their_windows():
    sink = StreamingTxnSink(window_ms=100.0)
    sink.note_arrival(10.0)
    sink.note_arrival(110.0)
    sink(_record(1, committed=True, submitted_at=10.0, finished_at=230.0))
    windows = sink.windows.windows
    assert [w.arrivals for w in windows] == [1, 1, 0]
    assert [w.commits for w in windows] == [0, 0, 1]
