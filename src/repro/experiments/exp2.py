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

# Figure 1's script: site 0 is down for transactions 1..DOWN_TXNS, then
# coordinates RECOVERING_SHARE of the transactions while it recovers;
# MAX_TXNS ends a run whose recovery never completes.
DOWN_TXNS = 100
RECOVERING_SHARE = 0.05
MAX_TXNS = 2000


@dataclass(slots=True)
class Figure1Result:
    """The Figure 1 series plus the §3 headline numbers."""

    series: dict[int, list[tuple[int, int]]]
    report: AvailabilityReport
    copiers: int
    aborts: int
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


def figure1_scenario(
    recovering_share: float = RECOVERING_SHARE,
    down_txns: int = DOWN_TXNS,
    max_txns: int = MAX_TXNS,
    workload: WorkloadGenerator | None = None,
) -> Scenario:
    """The §3.1 script: site 0 fails before transaction 1 and recovers
    after ``down_txns``; the run goes on until it has no fail-locks."""
    scenario = Scenario(
        txn_count=down_txns,
        workload=workload,
        policy=Weighted({0: recovering_share, 1: 1.0 - recovering_share}),
        until_recovered=(0,),
        max_txns=max_txns,
    )
    scenario.add_action(1, FailSite(0))
    scenario.add_action(down_txns + 1, RecoverSite(0))
    return scenario


def run_figure1(
    seed: int = 42,
    recovering_share: float = RECOVERING_SHARE,
    workload: WorkloadGenerator | None = None,
    down_txns: int = DOWN_TXNS,
    max_txns: int = MAX_TXNS,
    config: SystemConfig | None = None,
) -> Figure1Result:
    """Run :func:`figure1_scenario` and return the Figure 1 series.

    ``config`` replaces the paper's Experiment 2 configuration (and then
    carries the seed itself) — the ablations vary one field of it at a time.
    """
    if config is None:
        config = SystemConfig.paper_experiment2(seed=seed)
    scenario = figure1_scenario(recovering_share, down_txns, max_txns, workload)
    with Cluster(config) as cluster:
        metrics = cluster.run(scenario)
    series = {site: metrics.faillock_series(site) for site in config.site_ids}
    report = availability_of(metrics.faillock_samples, 0, config.db_size)
    return Figure1Result(
        series=series,
        report=report,
        copiers=metrics.counters.get("copiers"),
        aborts=metrics.counters.get("aborts"),
        metrics=metrics,
    )
