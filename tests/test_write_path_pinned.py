"""The ROWAA write path and the activation fabric, pinned end to end.

Every write-all commit goes through the CPU bank, the lock service, the
deadlock detector, the per-site commit path and the message fabric's
per-channel FIFO order.  These runs pin what those layers decide, so a
change to any of them must leave the outcomes byte for byte where they
are:

* short write-mixed soaks (the Zipf mix of ``soak-failover``) on a 1-core
  and a 5-core bank, under ROWAA, ROWA and QUORUM, through the soak's
  fail / recover cycle;
* one lossy chaos seed whose injected fates delay, duplicate and reorder
  messages;
* one open-loop run under strict 2PL whose detector picks deadlock
  victims;
* one concurrent cluster run whose fault interposer is installed by an
  activation *after* traffic has flowed and removed by another while
  delayed messages are still in flight: per-channel FIFO bookkeeping
  starts mid-run and must outlive the interposer.

The digests are ``conftest.digest`` (blake2b-128 of canonical JSON).
"""

import dataclasses

import pytest

from repro.chaos.faults import FaultPlan
from repro.chaos.interpose import FaultInjector
from repro.chaos.runner import run_chaos_seed
from repro.core.strategy import CopyControlStrategy
from repro.soak.engine import SoakConfig, run_soak
from repro.soak.report import build_report
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.system.openloop import OpenLoopManager, run_open_loop
from repro.txn.transaction import AbortReason
from repro.workload.uniform import UniformWorkload

from conftest import digest


def _txn_rows(records) -> list:
    return [
        [r.txn_id, r.coordinator, r.committed, r.abort_reason.value, r.finished_at]
        for r in records
    ]


SOAK_PINS = {
    ("rowaa", 1, 42): "36e40d204dd885bee3ede0be6d3413f9",
    ("rowaa", 1, 7): "ebbed2d6d6d203646c4eba9f46a4a9dd",
    ("rowaa", 5, 42): "bbba7b76d175f1acf46d090841609084",
    ("rowaa", 5, 7): "207c3e67a721d20fb89c4901ca49eb16",
    ("rowa", 1, 42): "b8080506c80f64b992db35e33ca34f1f",
    ("rowa", 1, 7): "61f541f37d869da3272d635011f73e8d",
    ("rowa", 5, 42): "f6be473a56983b67525e887ec388509f",
    ("rowa", 5, 7): "ff2d5a46868f79d26e65303b81f8f7a5",
    ("quorum", 1, 42): "37a988b055ce562eaf539a9345391613",
    ("quorum", 1, 7): "3c033786db1fce023af8a1af47afd7e5",
    ("quorum", 5, 42): "2d866b9de2fd733046c7e090ae098852",
    ("quorum", 5, 7): "08637fc2d8ef191b97a18c3363221f7a",
}


def soak_report(seed: int, strategy: str, cores: int, monkeypatch) -> dict:
    """The report of a 600-txn Zipf soak under ``strategy`` on ``cores``."""
    system_config = SoakConfig.system_config
    monkeypatch.setattr(
        SoakConfig,
        "system_config",
        lambda self: dataclasses.replace(
            system_config(self), strategy=CopyControlStrategy(strategy)
        ),
    )
    config = SoakConfig(seed=seed, txns=600, workload="zipf", cores=cores)
    return build_report(run_soak(config))


@pytest.mark.parametrize("strategy, cores, seed", sorted(SOAK_PINS))
def test_write_mixed_soak_is_pinned(strategy, cores, seed, monkeypatch):
    report = soak_report(seed, strategy, cores, monkeypatch)
    assert digest(report) == SOAK_PINS[strategy, cores, seed]


LOSSY_CHAOS_PIN = "4b22202502429810d5496da7afec9ab5"


def lossy_chaos_outcome() -> dict:
    """One lossy-core chaos seed: silent drops, delays, duplicates and
    FIFO-breaking reorders over the retransmission sublayer."""
    result = run_chaos_seed(455410715, txns=80, plan=FaultPlan.lossy())
    faults = result.fault_stats
    # The seed's fates take every delivery-time branch of the fabric.
    assert faults.delayed and faults.duplicated and faults.reordered
    assert result.clean and not result.stalled
    return dataclasses.asdict(result)


def test_lossy_chaos_seed_is_pinned():
    assert digest(lossy_chaos_outcome()) == LOSSY_CHAOS_PIN


DEADLOCK_PIN = "37757c99a2dc1626797b1328db675968"


def deadlock_outcome() -> dict:
    """An open-loop strict-2PL run on a 2-core bank with deadlock victims."""
    config = SystemConfig(
        db_size=20,
        num_sites=3,
        max_txn_size=6,
        seed=3,
        cores=2,
        concurrency_control=True,
        timeouts_enabled=True,
    )
    result = run_open_loop(config, txn_count=150, arrival_rate_tps=12.0)
    victims = [
        r.txn_id for r in result.records if r.abort_reason is AbortReason.LOCK_DEADLOCK
    ]
    assert victims and result.lock_parks
    return {
        "txns": _txn_rows(result.records),
        "deadlocks": result.deadlocks_detected,
        "parks": result.lock_parks,
        "elapsed": result.elapsed_ms,
        "events": result.events_fired,
    }


def test_open_loop_deadlocks_are_pinned():
    assert digest(deadlock_outcome()) == DEADLOCK_PIN


LATE_INTERPOSER_PIN = "4ca1029173356330dd49302e9e38b072"


def late_interposer_outcome() -> dict:
    """Concurrent open-loop traffic; a spawned activation installs a fault
    interposer once traffic has flowed, and a later one removes it while
    delayed messages are still in flight."""
    config = SystemConfig(
        db_size=32, num_sites=4, max_txn_size=4, seed=5, cores=3,
        wire_latency_ms=2.0, concurrency_control=True, timeouts_enabled=True,
    )
    cluster = Cluster(config)
    cluster.install_deadlock_detector()
    manager = OpenLoopManager(cluster)
    network = cluster.network
    network.replace_endpoint(manager)
    sent = []
    injector = FaultInjector(
        FaultPlan(
            drop_rate=0.0, duplicate_rate=0.0, delay_rate=0.5, delay_max_ms=150.0
        ),
        cluster.rng.stream("late.faults"),
    )

    def install(ctx) -> None:
        sent.append(network.messages_sent)
        network.interposer = injector

    def remove(ctx) -> None:
        sent.append(network.messages_sent)
        network.interposer = None

    network.spawn(cluster.site(1), install, delay=1_000.0)
    network.spawn(cluster.site(2), remove, delay=3_000.0)
    manager.launch(
        UniformWorkload(config.item_ids, config.max_txn_size), 200, 25.0
    )
    cluster.scheduler.run()
    assert manager.finished
    # Traffic flowed before, during and after the interposer.
    assert 0 < sent[0] < sent[1] < network.messages_sent
    faults = injector.stats
    assert faults.delayed
    assert cluster.audit_consistency() == []
    return {
        "txns": _txn_rows(cluster.metrics.txns),
        "counters": cluster.metrics.counters.as_dict(),
        "faults": dataclasses.asdict(faults),
        "events": cluster.scheduler.fired,
        "messages": network.messages_sent,
        "sites": [repr(site.signature()) for site in cluster.sites],
    }


def test_late_interposer_is_pinned():
    assert digest(late_interposer_outcome()) == LATE_INTERPOSER_PIN
