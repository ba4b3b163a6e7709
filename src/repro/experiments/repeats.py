"""Multi-seed replication of the experiments.

The paper ran "sets of transactions ... repeatedly over a two month
period" and reported averages.  These helpers re-run each experiment
across many seeds and summarize the distribution, giving the reproduction
confidence intervals instead of single draws — and giving tests a way to
assert that the headline results are stable properties, not lucky seeds.

Each replication takes a ``jobs`` parameter: ``jobs > 1`` fans the seeds
across worker processes (``run_chunked("call", ...)`` of
:mod:`repro.perf.pool`; ``None`` or 1 runs in-process).  The
per-seed workers are module-level functions returning plain floats, so
they pickle cheaply, and results are merged in seed order — the summary
is identical to a serial run's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def _figure1_stats(seed: int) -> tuple[float, float, float, float]:
    result = run_figure1(seed=seed)
    return (
        100.0 * result.peak_fraction,
        float(result.report.txns_to_recover),
        float(result.copiers),
        float(result.aborts),
    )


def _scenario1_aborts(seed: int) -> float:
    return float(run_scenario1(seed=seed, settle=False).aborts)


def _scenario2_aborts(seed: int) -> float:
    return float(run_scenario2(seed=seed, settle=False).aborts)


def replicate_figure1(
    seeds: tuple[int, ...] = tuple(range(1, 11)),
    jobs: Optional[int] = None,
) -> dict[str, Replicated]:
    """Figure 1 headline numbers across seeds."""
    peaks, recoveries, copiers, aborts = [], [], [], []
    for peak, recovery, copier, abort in run_chunked(
        "call", _figure1_stats, seeds, jobs=jobs
    ):
        peaks.append(peak)
        recoveries.append(recovery)
        copiers.append(copier)
        aborts.append(abort)
    return {
        "peak_pct": Replicated("peak fail-locked %", peaks),
        "txns_to_recover": Replicated("txns to recover", recoveries),
        "copiers": Replicated("copier txns", copiers),
        "aborts": Replicated("aborts", aborts),
    }


def replicate_scenario1(
    seeds: tuple[int, ...] = tuple(range(1, 11)),
    jobs: Optional[int] = None,
) -> Replicated:
    """Scenario 1's abort count across seeds (paper's single draw: 13)."""
    return Replicated(
        "scenario 1 aborts",
        run_chunked("call", _scenario1_aborts, seeds, jobs=jobs),
    )


def replicate_scenario2(
    seeds: tuple[int, ...] = tuple(range(1, 11)),
    jobs: Optional[int] = None,
) -> Replicated:
    """Scenario 2's abort count across seeds (paper: 0, structurally)."""
    return Replicated(
        "scenario 2 aborts",
        run_chunked("call", _scenario2_aborts, seeds, jobs=jobs),
    )

