"""Ablation studies for the design choices the paper calls out.

Each function isolates one question raised in the paper's discussion
sections (§2.2.3, §3.2, §5) or conclusions:

* **two-step recovery** (§3.2): does switching to batch copier
  transactions below a fail-lock threshold shorten the recovery tail?
* **embedded clearing** (§2.2.3): how much copier overhead disappears if
  the clear-fail-locks information rides in the commit protocol?
* **read/write ratio** (§5): fewer writes set fail-locks more slowly but
  leave more refreshing to copier transactions during recovery.
* **strategy comparison**: ROWAA vs strict ROWA vs quorum consensus under
  the Experiment 3 failure script.
* **failure detection**: announced (managing-site) vs timeout (Appendix A)
  detection and the aborts the latter costs.
* **benchmark workloads** (§5 future work): the Figure 1 scenario under
  ET1 and Wisconsin-shaped transaction mixes.
* **concurrent mode** (§5 future work): the "complete RAID" open-loop
  arrival-rate sweep under strict 2PL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.recovery import RecoveryPolicy
from repro.experiments.exp2 import run_figure1
from repro.experiments.exp3 import run_scenario2
from repro.metrics.stats import mean
from repro.system.cluster import Cluster
from repro.system.config import (
    ClearNoticeMode,
    CopyControlStrategy,
    FailureDetection,
    SystemConfig,
)
from repro.system.openloop import OpenLoopResult, run_open_loop
from repro.system.scenario import FailSite, RecoverSite, Scenario, Weighted
from repro.workload.base import WorkloadGenerator
from repro.workload.et1 import Et1Workload
from repro.workload.readwrite import ReadWriteWorkload
from repro.workload.uniform import UniformWorkload
from repro.workload.wisconsin import WisconsinWorkload


# -- A1: two-step recovery (§3.2) -----------------------------------------------


@dataclass(slots=True)
class RecoveryPolicyResult:
    """Recovery length under one policy/threshold."""

    policy: str
    threshold: float
    txns_to_recover: int
    copiers: int
    batch_copiers: int


def run_two_step_recovery(
    seed: int = 42, thresholds: tuple[float, ...] = (0.1, 0.2, 0.4)
) -> list[RecoveryPolicyResult]:
    """Figure-1 scenario under on-demand vs two-step recovery."""
    results = []
    configs = [("on_demand", RecoveryPolicy.ON_DEMAND, 0.0)]
    configs += [("two_step", RecoveryPolicy.TWO_STEP, t) for t in thresholds]
    for name, policy, threshold in configs:
        result = run_figure1(
            config=SystemConfig.paper_experiment2(
                seed=seed, recovery_policy=policy, batch_threshold=threshold
            )
        )
        results.append(
            RecoveryPolicyResult(
                policy=name,
                threshold=threshold,
                txns_to_recover=result.report.txns_to_recover,
                copiers=result.copiers,
                batch_copiers=result.metrics.counters.get("batch_copiers"),
            )
        )
    return results


# -- A2: embedded clear-fail-locks (§2.2.3) ------------------------------------------


@dataclass(slots=True)
class ClearNoticeResult:
    """Copier-transaction cost under one clear-notice mode."""

    mode: str
    txn_with_copier: float
    samples: int


def run_embedded_clearing(seed: int = 17) -> list[ClearNoticeResult]:
    """Copier transaction cost: special transactions vs embedded clears."""
    results = []
    for mode in (ClearNoticeMode.SPECIAL_TXN, ClearNoticeMode.EMBEDDED):
        config = SystemConfig.paper_experiment1(seed=seed, clear_notice_mode=mode)
        cluster = Cluster(config)
        scenario = Scenario(
            workload=UniformWorkload(config.item_ids, config.max_txn_size),
            txn_count=260,
            policy=Weighted({0: 1.0, 1: 0.001, 2: 0.001, 3: 0.001}),
        )
        scenario.add_action(3, FailSite(0))
        scenario.add_action(60, RecoverSite(0))
        metrics = cluster.run(scenario)
        times = [
            t.coordinator_elapsed
            for t in metrics.committed
            if t.copiers_requested == 1
        ]
        results.append(
            ClearNoticeResult(
                mode=mode.value,
                txn_with_copier=mean(times),
                samples=len(times),
            )
        )
    return results


# -- A3: read/write ratio (§5) -----------------------------------------------------


@dataclass(slots=True)
class ReadWriteResult:
    """Failure/recovery dynamics at one write probability."""

    write_probability: float
    peak_locks: int
    txns_to_recover: int
    copiers: int


def run_read_write_ratio(
    seed: int = 42, write_probs: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7)
) -> list[ReadWriteResult]:
    """The §5 prediction: read-heavy mixes lock more slowly and need more
    copier transactions during recovery."""
    results = []
    for wp in write_probs:
        config = SystemConfig.paper_experiment2(seed=seed, write_probability=wp)
        result = run_figure1(
            recovering_share=0.5,
            workload=ReadWriteWorkload(config.item_ids, config.max_txn_size, wp),
            max_txns=4000,
            config=config,
        )
        results.append(
            ReadWriteResult(
                write_probability=wp,
                peak_locks=result.report.peak_locks,
                txns_to_recover=result.report.txns_to_recover,
                copiers=result.copiers,
            )
        )
    return results


# -- A4: strategy comparison ----------------------------------------------------------


@dataclass(slots=True)
class StrategyResult:
    """Outcome counts for one strategy under the scenario-2 script."""

    strategy: str
    commits: int
    aborts: int
    abort_reasons: dict[str, int]


def run_strategy_comparison(seed: int = 42) -> list[StrategyResult]:
    """Scenario 2's failure script under ROWAA, strict ROWA, and quorum.

    ROWAA commits everything (the paper's result); strict ROWA aborts every
    write transaction while any site is down; majority quorum commits
    everything here (one failure out of four leaves a majority) but would
    collapse below quorum with two failures.
    """
    results = []
    for strategy in (
        CopyControlStrategy.ROWAA,
        CopyControlStrategy.ROWA,
        CopyControlStrategy.QUORUM,
    ):
        result = run_scenario2(
            settle=False,
            config=SystemConfig.paper_experiment3_scenario2(
                seed=seed, strategy=strategy
            ),
        )
        results.append(
            StrategyResult(
                strategy=strategy.value,
                commits=result.commits,
                aborts=result.aborts,
                abort_reasons=result.abort_reasons,
            )
        )
    return results


# -- A5: failure detection mode ---------------------------------------------------------


@dataclass(slots=True)
class DetectionResult:
    """Outcome counts under one failure-detection mode."""

    detection: str
    commits: int
    aborts: int
    type2_controls: int


def run_failure_detection(seed: int = 42) -> list[DetectionResult]:
    """Announced vs timeout detection under the scenario-2 script.

    Timeout detection (Appendix A taken literally) costs one aborted
    transaction per failure: the first post-failure coordinator discovers
    the down participant mid-phase-one.
    """
    results = []
    for detection in (FailureDetection.ANNOUNCED, FailureDetection.TIMEOUT):
        result = run_scenario2(
            settle=False,
            config=SystemConfig.paper_experiment3_scenario2(
                seed=seed, detection=detection
            ),
        )
        results.append(
            DetectionResult(
                detection=detection.value,
                commits=result.commits,
                aborts=result.aborts,
                type2_controls=result.metrics.counters.get("control_type2"),
            )
        )
    return results


# -- A6: benchmark workloads (§5 future work) ----------------------------------------------


@dataclass(slots=True)
class WorkloadResult:
    """Figure-1 dynamics under one workload."""

    workload: str
    peak_locks: int
    txns_to_recover: int
    copiers: int
    aborts: int


def run_benchmark_workloads(seed: int = 42) -> list[WorkloadResult]:
    """The Figure 1 scenario under the paper's future-work benchmarks."""
    config = SystemConfig.paper_experiment2(seed=seed)
    workloads: list[WorkloadGenerator] = [
        UniformWorkload(config.item_ids, config.max_txn_size),
        Et1Workload(config.item_ids),
        WisconsinWorkload(config.item_ids),
    ]
    results = []
    for workload in workloads:
        result = run_figure1(seed=seed, workload=workload, max_txns=4000)
        results.append(
            WorkloadResult(
                workload=workload.describe(),
                peak_locks=result.report.peak_locks,
                txns_to_recover=result.report.txns_to_recover,
                copiers=result.copiers,
                aborts=result.aborts,
            )
        )
    return results


# -- A8: the "complete RAID" concurrent mode (§5 future work) ---------------------------


def run_concurrent_sweep(
    seed: int = 42,
    rates: Sequence[float] = (2.0, 6.0, 12.0),
    txns: int = 300,
) -> dict[float, OpenLoopResult]:
    """Open-loop Poisson arrivals at each rate over the multi-machine
    deployment: four sites with a core each plus the driver's, the paper's
    measured 9 ms wire latency, strict 2PL with global deadlock detection.
    Returns ``{arrival rate (tps): result}`` in the order given."""
    config = SystemConfig(
        seed=seed,
        max_txn_size=5,
        concurrency_control=True,
        cores=5,
        wire_latency_ms=9.0,
    )
    return {
        rate: run_open_loop(config, txn_count=txns, arrival_rate_tps=rate)
        for rate in rates
    }


# -- A9: warm vs cold recovery (crash model) -------------------------------------------


@dataclass(slots=True)
class CrashModelResult:
    """Recovery dynamics under one crash model."""

    model: str
    initial_stale: int
    txns_to_recover: int
    copiers: int


def run_crash_models(seed: int = 42) -> list[CrashModelResult]:
    """Figure-1 scenario under the paper's warm crash (process memory
    survives) vs a cold crash (volatile database lost).

    Mini-RAID simulated failures by muting the process, so a recovering
    site only misses the updates committed during its outage; a cold crash
    fail-locks the *entire* database, lengthening recovery accordingly.
    """
    results = []
    for name, cold in (("warm", False), ("cold", True)):
        result = run_figure1(
            down_txns=30,
            max_txns=4000,
            config=SystemConfig.paper_experiment2(seed=seed, cold_recovery=cold),
        )
        results.append(
            CrashModelResult(
                model=name,
                initial_stale=result.report.peak_locks,
                txns_to_recover=result.report.txns_to_recover,
                copiers=result.copiers,
            )
        )
    return results


# -- A10: §2.2.2 scaling claims ---------------------------------------------------------


@dataclass(slots=True)
class ScalingResult:
    """Control-transaction costs at one (num_sites, db_size) point."""

    num_sites: int
    db_size: int
    type1_recovering: float
    type1_operational: float
    type2: float


def run_control_scaling(
    seed: int = 13,
    site_counts: tuple[int, ...] = (2, 4, 8),
    db_sizes: tuple[int, ...] = (50, 200),
) -> list[ScalingResult]:
    """Validate the paper's §2.2.2 scaling claims.

    "The time for a type 1 control transaction [at the recovering site] is
    dependent on the number of sites in the system"; the operational-site
    side "is independent of the number of sites ... [but] dependent on the
    size of the database"; type 2 "is independent of the number of sites".
    """
    results = []
    for num_sites in site_counts:
        for db_size in db_sizes:
            config = SystemConfig(
                db_size=db_size,
                num_sites=num_sites,
                max_txn_size=5,
                seed=seed,
            )
            cluster = Cluster(config)
            scenario = Scenario(
                workload=UniformWorkload(config.item_ids, config.max_txn_size),
                txn_count=20,
                policy=Weighted({0: 1.0, **{s: 0.0001 for s in range(1, num_sites)}}),
            )
            victim = num_sites - 1
            scenario.add_action(5, FailSite(victim))
            scenario.add_action(15, RecoverSite(victim))
            metrics = cluster.run(scenario)
            results.append(
                ScalingResult(
                    num_sites=num_sites,
                    db_size=db_size,
                    type1_recovering=mean(metrics.control_times(1, "recovering")),
                    type1_operational=mean(metrics.control_times(1, "operational")),
                    # Type 2 per-destination cost: take the first (queue-
                    # free) announcement; later ones include shared-CPU
                    # queueing behind each other, which the paper's
                    # isolated measurement excludes.
                    type2=min(metrics.control_times(2)),
                )
            )
    return results


# -- A11: network partitions — the ROWAA anomaly vs quorum safety ---------------------


@dataclass(slots=True)
class PartitionResult:
    """What one strategy did during and after a network partition."""

    strategy: str
    commits_during_partition: int
    aborts_during_partition: int
    divergent_items: int  # copies claiming currency with conflicting values


def run_partition_anomaly(seed: int = 42) -> list[PartitionResult]:
    """Demonstrate why ROWAA needs reliable failure knowledge.

    Under a clean site *failure* the failed site stops writing, so
    write-all-available stays one-copy serializable.  Under a *partition*
    with timeout detection, both halves decide the other failed and both
    keep accepting writes — the copies diverge, and after healing each
    half's fail-lock table wrongly certifies its own stale copies as
    current (the audit catches it).  Majority quorum consensus refuses to
    operate in the minority half and stays safe.  This is the classical
    argument for quorums that the paper's §1.1 partition remark glosses;
    the substrate makes it measurable.
    """
    from repro.system.scenario import HealNetwork, PartitionNetwork

    results = []
    for strategy in (CopyControlStrategy.ROWAA, CopyControlStrategy.QUORUM):
        config = SystemConfig(
            db_size=20,
            num_sites=4,
            max_txn_size=4,
            seed=seed,
            strategy=strategy,
            detection=FailureDetection.TIMEOUT,
        )
        cluster = Cluster(config)
        scenario = Scenario(
            workload=UniformWorkload(config.item_ids, config.max_txn_size),
            txn_count=60,
        )
        scenario.add_action(11, PartitionNetwork(groups=((0, 1, 2), (3,))))
        scenario.add_action(51, HealNetwork())
        metrics = cluster.run(scenario)
        window = [t for t in metrics.txns if 11 <= t.seq <= 50]
        commits = sum(1 for t in window if t.committed)
        aborts = len(window) - commits
        # Divergence: items whose copies disagree at the newest version
        # while no table flags the discrepancy.
        divergent = len(cluster.audit_consistency())
        results.append(
            PartitionResult(
                strategy=strategy.value,
                commits_during_partition=commits,
                aborts_during_partition=aborts,
                divergent_items=divergent,
            )
        )
    return results


# -- A12: submission bias during recovery (the Experiment 2 fidelity choice) ----------


@dataclass(slots=True)
class SubmissionBiasResult:
    """Recovery dynamics at one recovering-site submission share."""

    recovering_share: float
    txns_to_recover: int
    copiers: int
    refreshed_by_copier: int
    refreshed_by_write: int


def run_submission_bias(
    seed: int = 42, shares: tuple[float, ...] = (0.0, 0.05, 0.25, 0.5)
) -> list[SubmissionBiasResult]:
    """How the coordinator mix during recovery shapes copier traffic.

    The paper reports only two copier transactions during Figure 1's
    160-transaction recovery — evidence that transactions kept flowing to
    the long-operational site (see DESIGN.md).  This sweep makes the
    dependence explicit: the more transactions the recovering site
    coordinates, the more of its refreshing is done by on-demand copiers
    instead of incidental writes.
    """
    results = []
    for share in shares:
        result = run_figure1(seed=seed, recovering_share=share, max_txns=4000)
        (period,) = result.metrics.recoveries  # site 0 recovers once
        results.append(
            SubmissionBiasResult(
                recovering_share=share,
                txns_to_recover=result.report.txns_to_recover,
                copiers=result.copiers,
                refreshed_by_copier=period.refreshed_by_copier,
                refreshed_by_write=period.refreshed_by_write,
            )
        )
    return results
