"""Experiment 1: overhead measurements (paper §2).

Three overheads of keeping replicated copies consistent, measured with the
paper's configuration, which is :class:`SystemConfig`'s default:

* fail-lock maintenance during commit (§2.2.1),
* control transactions (§2.2.2),
* copier transactions (§2.2.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.metrics.collector import MetricsCollector
from repro.metrics.stats import mean
from repro.system.cluster import Cluster
from repro.system.config import FailureDetection, SystemConfig
from repro.system.scenario import FailSite, FixedSite, RecoverSite, Scenario, Weighted

# Published values (ms) for side-by-side reporting.
PAPER_COORD_NO_FL = 176.0
PAPER_COORD_FL = 186.0
PAPER_PART_NO_FL = 90.0
PAPER_PART_FL = 97.0
PAPER_TYPE1_RECOVERING = 190.0
PAPER_TYPE1_OPERATIONAL = 50.0
PAPER_TYPE2 = 68.0
PAPER_TXN_WITH_COPIER = 270.0
PAPER_COPY_REQUEST = 25.0
PAPER_CLEAR_FAILLOCKS = 20.0

# E1-T3's warm-up: the transaction before which the failed coordinator
# recovers.
WARM_TXNS = 60


@dataclass(slots=True)
class FaillockOverheadResult:
    """§2.2.1: transaction times with and without the fail-locks code."""

    coord_without: float
    coord_with: float
    part_without: float
    part_with: float

    @property
    def coord_overhead_pct(self) -> float:
        return 100.0 * (self.coord_with - self.coord_without) / self.coord_without

    @property
    def part_overhead_pct(self) -> float:
        return 100.0 * (self.part_with - self.part_without) / self.part_without

    def rows(self) -> list[tuple[str, float, float, float, float]]:
        """(role, measured w/o, paper w/o, measured w/, paper w/)."""
        return [
            ("coordinating site", self.coord_without, PAPER_COORD_NO_FL,
             self.coord_with, PAPER_COORD_FL),
            ("participating site", self.part_without, PAPER_PART_NO_FL,
             self.part_with, PAPER_PART_FL),
        ]


def run_faillock_overhead(seed: int = 11, txns: int = 300) -> FaillockOverheadResult:
    """Re-run the same transaction set with and without fail-locks code.

    The paper removed the fail-lock maintenance code from the software and
    re-ran the set; ``faillocks_enabled`` is the equivalent switch.  No
    failures are injected, so no copier transactions are generated.
    """
    times = {}
    for enabled in (False, True):
        config = SystemConfig(seed=seed, faillocks_enabled=enabled)
        scenario = Scenario(txn_count=txns)
        with Cluster(config) as cluster:
            metrics = cluster.run(scenario)
        times[enabled] = (
            mean(metrics.coordinator_times()),
            mean(metrics.participant_times()),
        )
    return FaillockOverheadResult(
        coord_without=times[False][0],
        coord_with=times[True][0],
        part_without=times[False][1],
        part_with=times[True][1],
    )


@dataclass(slots=True)
class ControlOverheadResult:
    """§2.2.2: control transaction completion times."""

    type1_recovering: float
    type1_operational: float
    type2: float

    def rows(self) -> list[tuple[str, float, float]]:
        return [
            ("type 1 at recovering site", self.type1_recovering, PAPER_TYPE1_RECOVERING),
            ("type 1 at operational site", self.type1_operational, PAPER_TYPE1_OPERATIONAL),
            ("type 2", self.type2, PAPER_TYPE2),
        ]


def run_control_overhead(seed: int = 13) -> ControlOverheadResult:
    """Measure type-1 and type-2 control transactions.

    Type 1 is measured in the paper's 4-site configuration (its duration
    at the recovering site depends on the site count).  Type 2 is measured
    in isolation — announcement to a single site — matching the paper's
    "sending of the failure announcement to a particular site and the
    updating of the session vector at that site".
    """
    # Type 1: fail a site, run some transactions, recover it.
    config = SystemConfig(seed=seed)
    scenario = Scenario(txn_count=40, policy=FixedSite(0))
    scenario.add_action(5, FailSite(3))
    scenario.add_action(35, RecoverSite(3))
    with Cluster(config) as cluster:
        metrics = cluster.run(scenario)
    type1_recovering = mean(metrics.control_times(1, "recovering"))
    type1_operational = mean(metrics.control_times(1, "operational"))

    # Type 2 in isolation: three sites, fail one; with TIMEOUT detection
    # the coordinator discovers the failure and announces to the single
    # remaining peer.  The announcing activation also sends the
    # transaction's ABORT, and the announcement queues 4.5 ms behind the
    # coordinator's receipt of the surviving participant's VOTE_ACK, so
    # the row is the paper's 68 ms plus one queued receive (72.5 ms; see
    # tests/test_experiments.py::test_e1t2_rows_are_closed_forms_over_the_table).
    config2 = SystemConfig(num_sites=3, seed=seed, detection=FailureDetection.TIMEOUT)
    scenario2 = Scenario(txn_count=20, policy=FixedSite(0))
    scenario2.add_action(10, FailSite(2))
    with Cluster(config2) as cluster2:
        metrics2 = cluster2.run(scenario2)
    type2 = mean(metrics2.control_times(2))
    return ControlOverheadResult(
        type1_recovering=type1_recovering,
        type1_operational=type1_operational,
        type2=type2,
    )


@dataclass(slots=True)
class CopierOverheadResult:
    """§2.2.3: copier transaction overheads."""

    txn_with_copier: float
    txn_without_copier: float
    copy_request_overhead: float
    clear_faillocks_time: float
    clear_notices_per_copier_txn: float = 0.0
    samples: int = 0

    @property
    def increase_pct(self) -> float:
        if self.txn_without_copier <= 0:
            return 0.0
        return 100.0 * (self.txn_with_copier - self.txn_without_copier) / (
            self.txn_without_copier
        )

    @property
    def clearing_share_pct(self) -> float:
        """Share of the copier overhead attributable to the clear-fail-locks
        special transactions (the paper's ≈30-percentage-point finding)."""
        extra = self.txn_with_copier - self.txn_without_copier
        if extra <= 0:
            return 0.0
        clearing = self.clear_notices_per_copier_txn * self.clear_faillocks_time
        return 100.0 * clearing / self.txn_without_copier

    def rows(self) -> list[tuple[str, float, Optional[float]]]:
        # The paper's 186 ms is the unconditional coordinator time (E1-T1);
        # the baseline here is size-matched, so it has no paper value.
        return [
            ("database txn with one copier", self.txn_with_copier, PAPER_TXN_WITH_COPIER),
            ("database txn without copier (size-matched)", self.txn_without_copier, None),
            ("copy request at responder", self.copy_request_overhead, PAPER_COPY_REQUEST),
            ("clear fail-locks per site", self.clear_faillocks_time, PAPER_CLEAR_FAILLOCKS),
        ]


def copier_scenario(warm_txns: int) -> Scenario:
    """E1-T3's recovering-coordinator script: on 4 sites, site 0 fails,
    misses updates and recovers at transaction ``warm_txns``; the 200
    transactions after it are submitted *to site 0*, so reads of its
    fail-locked copies generate copiers."""
    scenario = Scenario(
        txn_count=warm_txns + 200,
        # Site 0 coordinates whenever it is up; while it is down, the
        # weights renormalize over the survivors, so the warm-up
        # transactions spread across them.
        policy=Weighted({0: 1.0, 1: 0.001, 2: 0.001, 3: 0.001}),
    )
    scenario.add_action(3, FailSite(0))
    scenario.add_action(warm_txns, RecoverSite(0))
    return scenario


def run_copier_scenario(config: SystemConfig, warm_txns: int) -> MetricsCollector:
    """Run :func:`copier_scenario` on ``config``."""
    with Cluster(config) as cluster:
        return cluster.run(copier_scenario(warm_txns))


def run_copier_overhead(
    seed: int = 17, warm_txns: int = WARM_TXNS
) -> CopierOverheadResult:
    """Measure transactions that generate exactly one copier transaction,
    in :func:`copier_scenario`.  The baseline is the same run's
    copier-free transactions after the warm-up, size-matched."""
    config = SystemConfig(seed=seed)
    metrics = run_copier_scenario(config, warm_txns)

    # Transactions that needed a copier skew large (more operations means
    # more chances to read a fail-locked copy), so the honest baseline is
    # size-matched: for each copier transaction, compare against
    # copier-free transactions of the same operation count.
    copier_txns = [t for t in metrics.committed if t.copiers_requested == 1]
    baseline_by_size: dict[int, list[float]] = {}
    for t in metrics.committed:
        if t.copiers_requested == 0 and t.seq > warm_txns:
            baseline_by_size.setdefault(t.size, []).append(t.coordinator_elapsed)
    with_one_copier = []
    without = []
    for t in copier_txns:
        matched = baseline_by_size.get(t.size)
        if matched:
            with_one_copier.append(t.coordinator_elapsed)
            without.append(mean(matched))
    clear_counts = [t.clear_notices_sent for t in copier_txns]
    costs = config.costs
    # The two micro-overheads follow directly from the calibrated cost
    # model (they are single activations, not emergent interleavings).
    copy_request_overhead = (
        costs.msg_recv_cost + costs.copy_response_cost(1) + costs.msg_send_cost
    )
    clear_time = costs.communication_cost + costs.clear_notice_apply_cost
    return CopierOverheadResult(
        txn_with_copier=mean(with_one_copier),
        txn_without_copier=mean(without),
        copy_request_overhead=copy_request_overhead,
        clear_faillocks_time=clear_time,
        clear_notices_per_copier_txn=mean([float(c) for c in clear_counts]),
        samples=len(with_one_copier),
    )
