"""Multi-seed replication of the experiments.

The paper ran "sets of transactions ... repeatedly over a two month
period" and reported averages.  These helpers re-run each experiment
across many seeds and summarize the distribution, giving the reproduction
confidence intervals instead of single draws — and giving tests a way to
assert that the headline results are stable properties, not lucky seeds.

Each replication fans its seeds across worker processes
(:func:`~repro.perf.pool.run_chunked`, on every CPU unless its ``jobs``
parameter says otherwise; ``jobs=1`` runs in-process).  The per-seed
functions are module-level (or a ``partial`` of one), so the pool pickles
them by reference, and they return plain floats; results are merged in
seed order — the summary is identical to a serial run's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

from repro.experiments.exp2 import run_figure1
from repro.experiments.exp3 import run_scenario1, run_scenario2
from repro.metrics.stats import mean, stddev
from repro.perf.pool import run_chunked


@dataclass(slots=True)
class Replicated:
    """A statistic replicated across seeds."""

    name: str
    values: list[float]

    @property
    def mean(self) -> float:
        return mean(self.values)

    @property
    def ci95_half_width(self) -> float:
        """Normal-approximation 95 % confidence half-width."""
        if len(self.values) < 2:
            return 0.0
        return 1.96 * stddev(self.values) / math.sqrt(len(self.values))

    @property
    def low(self) -> float:
        return min(self.values)

    @property
    def high(self) -> float:
        return max(self.values)

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.mean:.1f} ± {self.ci95_half_width:.1f} "
            f"(range {self.low:.1f}..{self.high:.1f}, n={len(self.values)})"
        )


def _figure1_stats(seed: int) -> tuple[float, float, float, float, float]:
    result = run_figure1(seed=seed)
    return (
        100.0 * result.peak_fraction,
        float(result.report.txns_to_recover),
        float(result.report.last_bucket_txns),
        float(result.copiers),
        float(result.aborts),
    )


def _scenario_aborts(n: int, seed: int) -> float:
    run = {1: run_scenario1, 2: run_scenario2}[n]
    return float(run(seed=seed, settle=False).aborts)


def replicate_figure1(
    seeds: tuple[int, ...] = tuple(range(1, 11)),
    jobs: Optional[int] = None,
) -> dict[str, Replicated]:
    """Figure 1 headline numbers across seeds."""
    names = (
        ("peak_pct", "peak fail-locked %"),
        ("txns_to_recover", "txns to recover"),
        ("last_10", "txns to clear last 10 fail-locks"),
        ("copiers", "copier txns"),
        ("aborts", "aborts"),
    )
    columns = zip(*run_chunked(_figure1_stats, seeds, jobs=jobs))
    return {
        key: Replicated(name, list(values))
        for (key, name), values in zip(names, columns)
    }


def replicate_scenario(
    n: int,
    seeds: tuple[int, ...] = tuple(range(1, 11)),
    jobs: Optional[int] = None,
) -> Replicated:
    """Scenario ``n``'s abort count across seeds (paper: 13 in scenario 1's
    single draw, 0 in scenario 2, structurally)."""
    return Replicated(
        f"scenario {n} aborts",
        run_chunked(partial(_scenario_aborts, n), seeds, jobs=jobs),
    )
