"""Streaming measurement path of the open-loop driver.

``run_open_loop(keep_records=False)`` must change only the measurement
pipeline — the simulation under it is identical — so every discrete
outcome matches the record-keeping run exactly and only the sketch-backed
latency percentiles carry an (documented, bounded) approximation.
"""

import math

import pytest

from repro.metrics.stats import percentile
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.system.openloop import OpenLoopManager, run_open_loop
from repro.workload.uniform import UniformWorkload

TXNS = 150


@pytest.fixture(scope="module")
def paired_runs():
    config = lambda: SystemConfig(concurrency_control=True)
    exact = run_open_loop(config(), txn_count=TXNS, keep_records=True)
    streaming = run_open_loop(config(), txn_count=TXNS, keep_records=False)
    return exact, streaming


def test_streaming_run_matches_exact_outcomes(paired_runs):
    exact, streaming = paired_runs
    assert streaming.txn_count == exact.txn_count
    assert streaming.commits == exact.commits
    assert streaming.aborts == exact.aborts
    assert streaming.deadlock_aborts == exact.deadlock_aborts
    assert streaming.deadlocks_detected == exact.deadlocks_detected
    assert streaming.elapsed_ms == exact.elapsed_ms
    assert streaming.events_fired == exact.events_fired
    assert streaming.lock_parks == exact.lock_parks


def test_streaming_run_retains_no_records(paired_runs):
    exact, streaming = paired_runs
    assert len(exact.records) == TXNS
    assert streaming.records == []


def test_streaming_latency_moments_are_exact(paired_runs):
    exact, streaming = paired_runs
    assert streaming.latency.count == exact.latency.count
    assert streaming.latency.mean == pytest.approx(exact.latency.mean)
    assert streaming.latency.stddev == pytest.approx(exact.latency.stddev)
    assert streaming.latency.minimum == exact.latency.minimum
    assert streaming.latency.maximum == exact.latency.maximum


def test_streaming_percentiles_within_sketch_bounds(paired_runs):
    """Median/p95 come from the sketch: bounded by the order statistics
    around the rank, widened by the sketch's 1% relative error."""
    exact, streaming = paired_runs
    latencies = sorted(t.elapsed for t in exact.records if t.committed)
    for p, estimate in ((50.0, streaming.latency.median),
                        (95.0, streaming.latency.p95)):
        rank = p / 100.0 * (len(latencies) - 1)
        lo = latencies[math.floor(rank)]
        hi = latencies[math.ceil(rank)]
        assert lo * 0.99 <= estimate <= hi * 1.01
        # And close to the exact interpolated percentile in absolute terms.
        assert estimate == pytest.approx(percentile(latencies, p), rel=0.05)


def test_streaming_run_is_deterministic():
    config = lambda: SystemConfig(concurrency_control=True)
    a = run_open_loop(config(), txn_count=60, keep_records=False)
    b = run_open_loop(config(), txn_count=60, keep_records=False)
    assert (a.commits, a.aborts, a.elapsed_ms) == (b.commits, b.aborts, b.elapsed_ms)
    assert a.latency == b.latency


def test_settled_transactions_leave_no_bookkeeping():
    """An attempt's submit time, operations and retry budget go when it
    settles, a retried deadlock victim's included: what the manager holds
    is bounded by what is unsettled, not by the run's length."""
    config = SystemConfig(
        db_size=4, num_sites=3, max_txn_size=4, seed=3, concurrency_control=True
    )
    with Cluster(config) as cluster:
        cluster.install_deadlock_detector()
        manager = OpenLoopManager(cluster, deadlock_retries=3)
        cluster.network.replace_endpoint(manager)
        manager.launch(UniformWorkload(config.item_ids, config.max_txn_size), 150, 40.0)
        cluster.scheduler.run()
    assert manager.finished and manager.retries_issued
    assert manager._submit_times == manager._attempt_ops == manager._attempts_left == {}
