"""Experiment 2: data availability on a recovering site (paper §3, Figure 1).

Two sites, database of 50 items, maximum transaction size 5.  Site 0 fails
before transaction 1; transactions 1-100 run on site 1, fail-locking most
of site 0's copies; site 0 recovers before transaction 101 and transactions
continue until it is completely recovered.

The paper reports: over 90 % of site 0's copies fail-locked at the peak,
about 160 further transactions to full recovery, only two copier
transactions requested, and a clearing rate proportional to the locked
fraction ("the first 10 fail-locks were cleared in only 6 transactions and
the last 10 fail-locks were cleared in 106").

Submission policy: transactions keep flowing predominantly to the
long-operational site (see DESIGN.md on why the paper's copier count
implies this); ``recovering_share`` controls the bias.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.metrics.availability import AvailabilityReport, availability_of
from repro.metrics.collector import MetricsCollector
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.system.scenario import FailSite, RecoverSite, Scenario, Weighted
from repro.viz.ascii_chart import render_series, site_series
from repro.workload.base import WorkloadGenerator
from repro.workload.uniform import UniformWorkload


@dataclass(slots=True)
class Figure1Result:
    """The Figure 1 series plus the §3 headline numbers."""

    series: dict[int, list[tuple[int, int]]]
    report: AvailabilityReport
    copiers: int
    aborts: int
    total_txns: int
    metrics: MetricsCollector = field(repr=False, default=None)  # type: ignore[assignment]

    @property
    def peak_fraction(self) -> float:
        return self.report.peak_locks / self.report.db_size

    def chart(self) -> str:
        """Render the figure as an ASCII chart."""
        return render_series(
            site_series(self.series),
            title=(
                "Figure 1: data availability during failure and recovery "
                "(db=50, max txn size=5)"
            ),
            height=18,
        )


def run_figure1(
    seed: int = 42,
    recovering_share: float = 0.05,
    workload: WorkloadGenerator | None = None,
    down_txns: int = 100,
    max_txns: int = 2000,
    config: SystemConfig | None = None,
) -> Figure1Result:
    """Run the §3.1 scenario and return the Figure 1 series.

    ``config`` replaces the paper's Experiment 2 configuration (and then
    carries the seed itself) — the ablations vary one field of it at a time.
    """
    if config is None:
        config = SystemConfig.paper_experiment2(seed=seed)
    cluster = Cluster(config)
    if workload is None:
        workload = UniformWorkload(config.item_ids, config.max_txn_size)
    scenario = Scenario(
        workload=workload,
        txn_count=down_txns,
        policy=Weighted({0: recovering_share, 1: 1.0 - recovering_share}),
        until_recovered=(0,),
        max_txns=max_txns,
    )
    scenario.add_action(1, FailSite(0))
    scenario.add_action(down_txns + 1, RecoverSite(0))
    metrics = cluster.run(scenario)
    series = {site: metrics.faillock_series(site) for site in config.site_ids}
    report = availability_of(metrics.faillock_samples, 0, config.db_size)
    return Figure1Result(
        series=series,
        report=report,
        copiers=metrics.counters.get("copiers"),
        aborts=metrics.counters.get("aborts"),
        total_txns=len(metrics.txns),
        metrics=metrics,
    )
