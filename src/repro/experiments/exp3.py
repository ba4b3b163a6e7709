"""Experiment 3: consistency of replicated copies (paper §4, Figures 2-3).

"Since each set fail-lock represents an inconsistent copy, the number of
fail-locks set is a measure of inconsistency."  Two scenarios with multiple
sites recovering concurrently:

* Scenario 1 (Figure 2): two sites, db=50, max txn size 5.  Site 0 down
  for transactions 1-25; site 1 down (and site 0 recovering) for 26-50;
  both up for 51-120.  Site 1's absence during site 0's recovery makes
  some items totally unavailable, forcing aborted transactions (13 in the
  paper's run).
* Scenario 2 (Figure 3): four sites failing singly in succession, 25
  transactions apart, all up from 101; with an up-to-date copy always
  available somewhere, no transaction aborts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.metrics.collector import MetricsCollector
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.system.scenario import FailSite, RecoverSite, Scenario
from repro.viz.ascii_chart import render_series, site_series


@dataclass(slots=True)
class ScenarioResult:
    """A Figure 2/3 run: per-site fail-lock series and outcome counts."""

    name: str
    series: dict[int, list[tuple[int, int]]]
    aborts: int
    commits: int
    abort_reasons: dict[str, int]
    final_locks: dict[int, int]
    consistency_violations: list[str]
    metrics: MetricsCollector = field(repr=False, default=None)  # type: ignore[assignment]

    def chart(self) -> str:
        return render_series(
            site_series(self.series),
            title=f"{self.name} (db=50, max txn size=5)",
            height=18,
        )


def _run(config: SystemConfig, scenario: Scenario, name: str) -> ScenarioResult:
    with Cluster(config) as cluster:
        metrics = cluster.run(scenario)
    reasons: dict[str, int] = {}
    for record in metrics.aborted:
        reasons[record.abort_reason.value] = reasons.get(record.abort_reason.value, 0) + 1
    return ScenarioResult(
        name=name,
        series={site: metrics.faillock_series(site) for site in config.site_ids},
        aborts=metrics.counters.get("aborts"),
        commits=metrics.counters.get("commits"),
        abort_reasons=reasons,
        final_locks=cluster.faillock_counts(),
        consistency_violations=cluster.audit_consistency(),
        metrics=metrics,
    )


def scenario1(settle: bool) -> Scenario:
    """Figure 2's script: two sites with alternating failures.

    ``settle`` extends the run past transaction 120 until both sites are
    fully recovered (the paper's graph tails off to zero around there).
    """
    scenario = Scenario(
        txn_count=120,
        until_recovered=(0, 1) if settle else (),
        max_txns=1000,
    )
    scenario.add_action(1, FailSite(0))
    scenario.add_action(26, RecoverSite(0))
    scenario.add_action(26, FailSite(1))
    scenario.add_action(51, RecoverSite(1))
    return scenario


def scenario2(settle: bool = True) -> Scenario:
    """Figure 3's script: four sites failing singly in succession, 25
    transactions apart; ``settle`` as for :func:`scenario1`."""
    scenario = Scenario(
        txn_count=160,
        until_recovered=(0, 1, 2, 3) if settle else (),
        max_txns=1000,
    )
    for site in range(4):
        scenario.add_action(25 * site + 1, FailSite(site))
        scenario.add_action(25 * (site + 1) + 1, RecoverSite(site))
    return scenario


def run_scenario1(seed: int = 42, settle: bool = True) -> ScenarioResult:
    """Figure 2: :func:`scenario1` on the Experiment 2 configuration."""
    config = SystemConfig.paper_experiment2(seed=seed)
    name = "Figure 2: database inconsistency (scenario 1)"
    return _run(config, scenario1(settle), name)


def run_scenario2(
    seed: int = 42, settle: bool = True, config: SystemConfig | None = None
) -> ScenarioResult:
    """Figure 3: :func:`scenario2`.

    ``config`` replaces the paper's configuration (and then carries the
    seed itself) — the ablations vary its strategy and detection mode.
    """
    if config is None:
        config = SystemConfig.paper_experiment3_scenario2(seed=seed)
    name = "Figure 3: database inconsistency (scenario 2)"
    return _run(config, scenario2(settle), name)
