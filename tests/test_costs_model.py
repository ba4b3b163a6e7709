"""Cost-model behaviour in the running system."""

import pytest

from repro.system.config import SystemConfig

from conftest import make_scenario, run_cluster, scale_costs

CONFIG = SystemConfig(db_size=10, num_sites=3, max_txn_size=4, seed=3)


def test_scaled_costs_scale_run_time(monkeypatch):
    base = run_cluster(CONFIG, make_scenario(CONFIG, 20)).now
    scale_costs(monkeypatch, 2.0)
    double = run_cluster(CONFIG, make_scenario(CONFIG, 20)).now
    assert double == pytest.approx(2 * base, rel=0.01)


def test_free_costs_run_in_zero_time(monkeypatch):
    scale_costs(monkeypatch, 0.0)
    cluster = run_cluster(CONFIG, make_scenario(CONFIG, 20))
    assert cluster.now == 0.0
    assert cluster.metrics.counters["commits"] == 20


def test_multicore_is_never_slower():
    def total_time(cores):
        config = SystemConfig(
            db_size=10, num_sites=4, max_txn_size=4, seed=3, cores=cores
        )
        cluster = run_cluster(config, make_scenario(config, 30))
        return cluster.now

    single = total_time(1)
    multi = total_time(5)
    assert multi <= single


def test_wire_latency_adds_time_without_cpu():
    def run_with(latency):
        config = SystemConfig(
            db_size=10, num_sites=3, max_txn_size=4, seed=3,
            wire_latency_ms=latency,
        )
        cluster = run_cluster(config, make_scenario(config, 10))
        return cluster.now, cluster.cpu.busy_ms

    t0, busy0 = run_with(0.0)
    t1, busy1 = run_with(20.0)
    assert t1 > t0
    assert busy1 == pytest.approx(busy0)  # latency is not CPU work


def test_message_costs_flow_to_cpu_accounting():
    config = SystemConfig(db_size=10, num_sites=3, max_txn_size=4, seed=3)
    cluster = run_cluster(config, make_scenario(config, 10))
    delivered = cluster.network.messages_delivered
    # Every delivered message cost at least send+recv on the CPU.
    assert cluster.cpu.busy_ms >= delivered * config.costs.communication_cost * 0.9
