"""The "complete RAID" concurrent mode: 2PL, deadlock detection, open loop."""

import pytest

from repro.errors import ConfigurationError
from repro.system.config import SystemConfig
from repro.system.openloop import run_open_loop
from repro.txn.operations import OpKind, Operation
from repro.txn.transaction import AbortReason
from repro.workload.base import WorkloadGenerator
from repro.workload.uniform import UniformWorkload

from conftest import copies


def concurrent_config(**kw):
    defaults = dict(
        db_size=20,
        num_sites=3,
        max_txn_size=4,
        seed=42,
        concurrency_control=True,
    )
    defaults.update(kw)
    return SystemConfig(**defaults)


def test_requires_concurrency_flag():
    with pytest.raises(ConfigurationError):
        run_open_loop(SystemConfig(), txn_count=5, arrival_rate_tps=1.0)


def test_all_txns_complete():
    result = run_open_loop(concurrent_config(), txn_count=100, arrival_rate_tps=5.0)
    assert result.commits + result.aborts == 100


def test_consistency_survives_concurrency():
    """run_open_loop audits internally; a clean return is the assertion —
    replicas agree item-by-item after hundreds of interleaved commits."""
    result = run_open_loop(
        concurrent_config(seed=7), txn_count=200, arrival_rate_tps=10.0
    )
    assert result.commits > 0


def test_only_deadlocks_abort():
    result = run_open_loop(concurrent_config(), txn_count=150, arrival_rate_tps=10.0)
    assert result.aborts == result.deadlock_aborts
    for record in result.records:
        if not record.committed:
            assert record.abort_reason is AbortReason.LOCK_DEADLOCK


def test_low_rate_behaves_serially():
    """At a trickle arrival rate there is no contention: no parks, no
    deadlocks, every transaction commits."""
    result = run_open_loop(
        concurrent_config(db_size=50), txn_count=50, arrival_rate_tps=0.5
    )
    assert result.commits == 50
    assert result.deadlock_aborts == 0
    assert result.lock_parks == 0


def test_contention_produces_waits_and_deadlocks():
    """A tiny hot set under high arrival rate must generate lock waits and
    at least one deadlock-victim abort."""
    result = run_open_loop(
        concurrent_config(db_size=4, seed=3), txn_count=150, arrival_rate_tps=40.0
    )
    assert result.lock_parks > 0
    assert result.deadlock_aborts > 0
    assert result.commits > 0


def test_throughput_tracks_arrival_below_saturation():
    config = concurrent_config(db_size=50, num_sites=4, cores=5, wire_latency_ms=9.0)
    slow = run_open_loop(config, txn_count=200, arrival_rate_tps=2.0)
    config2 = concurrent_config(db_size=50, num_sites=4, cores=5, wire_latency_ms=9.0)
    fast = run_open_loop(config2, txn_count=200, arrival_rate_tps=6.0)
    assert fast.throughput_tps > 2 * slow.throughput_tps
    # Latency should not explode below saturation.
    assert fast.latency.mean < 3 * slow.latency.mean


def test_deterministic():
    a = run_open_loop(concurrent_config(), txn_count=120, arrival_rate_tps=15.0)
    b = run_open_loop(concurrent_config(), txn_count=120, arrival_rate_tps=15.0)
    assert a.commits == b.commits
    assert a.deadlock_aborts == b.deadlock_aborts
    assert a.elapsed_ms == b.elapsed_ms
    assert a.latency.mean == b.latency.mean


def test_write_hotspot_serializes():
    """Every transaction writes the same item through the SAME coordinator:
    strict 2PL queues them at that site's lock table, so all commit with
    zero deadlocks, versions are monotone, and replicas agree.

    (From *different* coordinators, same-item hot writes are the classic
    distributed write-write deadlock — covered by the contention test.)
    """

    class HotWrite(WorkloadGenerator):
        def generate(self, txn_seq, rng):
            return [Operation(OpKind.WRITE, 0)]

    from repro.system.cluster import Cluster
    from repro.system.openloop import OpenLoopManager

    config = concurrent_config(seed=5)
    cluster = Cluster(config)
    detector = cluster.install_deadlock_detector()
    manager = OpenLoopManager(cluster)
    cluster.network.replace_endpoint(manager)
    manager.launch(
        HotWrite(), 40, arrival_rate_tps=50.0, site_chooser=lambda seq, rng: 0
    )
    cluster.scheduler.run()
    assert manager.finished
    assert cluster.metrics.counters["commits"] == 40
    assert detector.deadlocks_found == 0
    for site in cluster.sites:
        versions = [r.new_version for r in site.db.log.records if r.item_id == 0]
        assert len(versions) == 40
        assert versions == sorted(versions)
    # All replicas identical.
    dumps = [copies(site.db) for site in cluster.sites]
    assert dumps[0] == dumps[1] == dumps[2]


def test_read_write_cycle_deadlock_resolved():
    """Construct a guaranteed cross-site deadlock: two transactions that
    write each other's read sets in opposite orders, arriving at different
    coordinators simultaneously."""

    class Crossed(WorkloadGenerator):
        def generate(self, txn_seq, rng):
            if txn_seq % 2 == 1:
                return [Operation(OpKind.WRITE, 0), Operation(OpKind.WRITE, 1)]
            return [Operation(OpKind.WRITE, 1), Operation(OpKind.WRITE, 0)]

    result = run_open_loop(
        concurrent_config(db_size=2, seed=11),
        workload=Crossed(),
        txn_count=60,
        arrival_rate_tps=60.0,
    )
    assert result.commits + result.aborts == 60
    assert result.commits > 0
    # Whatever deadlocked was resolved (no stall), and nothing else aborted.
    assert result.aborts == result.deadlock_aborts


def test_deadlock_retries_recover_lost_commits():
    """With retries enabled, deadlock victims are resubmitted and most
    eventually commit; without retries they are simply lost."""
    base = dict(db_size=4, seed=3)
    no_retry = run_open_loop(
        concurrent_config(**base), txn_count=150, arrival_rate_tps=40.0
    )
    with_retry = run_open_loop(
        concurrent_config(**base),
        txn_count=150,
        arrival_rate_tps=40.0,
        deadlock_retries=3,
    )
    assert no_retry.deadlock_aborts > 0
    assert with_retry.retries > 0
    assert with_retry.commits > no_retry.commits
    # Every logical transaction reached a terminal state.
    assert with_retry.commits + with_retry.aborts - with_retry.retries == 150


def test_retries_preserve_consistency():
    result = run_open_loop(
        concurrent_config(db_size=4, seed=9),
        txn_count=120,
        arrival_rate_tps=40.0,
        deadlock_retries=5,
    )
    # run_open_loop audits internally; additionally the retry accounting
    # must balance.
    assert result.commits + result.aborts == 120 + result.retries
