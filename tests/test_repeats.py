"""Multi-seed stability of the headline results.

The reproduction's claims must hold across seeds, not on one lucky draw.
These run the experiments over several seeds and assert the paper-shaped
bands on the *distribution*.
"""

import pytest

from repro.experiments.repeats import (
    Replicated,
    replicate_figure1,
    replicate_scenario,
)

SEEDS = tuple(range(1, 7))


@pytest.fixture(scope="module")
def figure1_stats():
    return replicate_figure1(seeds=SEEDS)


def test_replicated_statistics_helpers():
    r = Replicated("x", [1.0, 2.0, 3.0])
    assert r.mean == 2.0
    assert r.low == 1.0 and r.high == 3.0
    assert r.ci95_half_width > 0
    assert "x:" in str(r)


def test_figure1_peak_stable_above_90pct(figure1_stats):
    peaks = figure1_stats["peak_pct"]
    assert peaks.low > 88.0          # every seed peaks high
    assert peaks.mean > 92.0


def test_figure1_recovery_band(figure1_stats):
    recoveries = figure1_stats["txns_to_recover"]
    # Paper: ~160.  Coupon-collector variance is wide, but the mean must
    # land in the same regime.
    assert 60 <= recoveries.mean <= 320
    assert recoveries.low > 30


def test_figure1_copiers_always_few(figure1_stats):
    assert figure1_stats["copiers"].high <= 6   # paper: 2
    assert figure1_stats["aborts"].high == 0


def test_scenario1_aborts_always_present():
    aborts = replicate_scenario(1, seeds=SEEDS)
    assert aborts.low >= 1            # the mechanism always bites
    assert aborts.high <= 30          # and stays in the paper's regime
    assert 3 <= aborts.mean <= 20     # paper's draw: 13


def test_scenario2_never_aborts():
    aborts = replicate_scenario(2, seeds=SEEDS)
    assert aborts.high == 0.0         # structural, not statistical

