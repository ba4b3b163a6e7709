"""Online quantile estimators (repro.metrics.sketch).

The QuantileSketch error contract, as documented on the class: for any
percentile p, the estimate lies in ``[lo * (1 - rel_err), hi * (1 + rel_err)]``
where lo/hi are the order statistics at the floor/ceiling of the rank
``p/100 * (n - 1)``.  These tests check that contract property-style
across distribution shapes, plus the exact-merge property the streaming
layer relies on.
"""

import math
import random
from collections import Counter

import pytest

from repro.metrics.sketch import P2Quantile, QuantileSketch
from repro.metrics.streaming import StreamingStats
from repro.metrics.stats import percentile

PERCENTILES = [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0]


def order_stat_bounds(values, p):
    """(lo, hi): the order statistics bracketing rank p/100 * (n-1)."""
    ordered = sorted(values)
    rank = p / 100.0 * (len(ordered) - 1)
    return ordered[math.floor(rank)], ordered[math.ceil(rank)]


def assert_within_contract(sketch, values, rel_err):
    for p in PERCENTILES:
        lo, hi = order_stat_bounds(values, p)
        estimate = sketch.quantile(p)
        assert lo * (1.0 - rel_err) <= estimate <= hi * (1.0 + rel_err), (
            f"p{p}: estimate {estimate} outside "
            f"[{lo * (1 - rel_err)}, {hi * (1 + rel_err)}]"
        )


def build(values, rel_err=0.01):
    sketch = QuantileSketch(rel_err=rel_err)
    for v in values:
        sketch.add(v)
    return sketch


@pytest.fixture
def rng() -> random.Random:
    return random.Random(4242)


def test_uniform_within_bounds(rng):
    values = [rng.uniform(1.0, 1000.0) for _ in range(5000)]
    assert_within_contract(build(values), values, 0.01)


def test_heavy_tail_within_bounds(rng):
    # Zipf-like: many small latencies, a long tail of large ones.
    values = [1.0 + rng.paretovariate(1.2) for _ in range(5000)]
    assert_within_contract(build(values), values, 0.01)


def test_bimodal_within_bounds(rng):
    # Two latency modes (fast local commits vs timeout-delayed ones).
    # The sketch never interpolates across the empty gap: every estimate
    # still lands within the order-statistic bounds, which at the mode
    # boundary span the gap.
    values = [
        rng.uniform(5.0, 10.0) if rng.random() < 0.7
        else rng.uniform(400.0, 500.0)
        for _ in range(4000)
    ]
    assert_within_contract(build(values), values, 0.01)


def test_constant_within_bounds():
    values = [123.456] * 1000
    assert_within_contract(build(values), values, 0.01)
    stats = StreamingStats()
    for value in values:
        stats.add(value)
    assert stats.minimum == stats.maximum == 123.456


def test_coarser_rel_err_still_honors_its_own_bound(rng):
    values = [rng.expovariate(0.01) + 0.5 for _ in range(3000)]
    assert_within_contract(build(values, rel_err=0.05), values, 0.05)


def test_tracks_count_total_min_max(rng):
    """After every sample of a stream that opens with a zero and holds
    repeats and an all-equal run: the sketch's count and its bucket total,
    StreamingStats' min and max against the builtins, and the buckets
    against ``ceil(log v / ln gamma)`` computed directly."""
    values = [rng.uniform(0.5, 50.0) for _ in range(500)]
    values = [0.0, *values[:250], 0.0, 3.25, 3.25, *[7.5] * 40, *values[250:], values[0]]
    sketch, stats = QuantileSketch(rel_err=0.01), StreamingStats()
    ln_gamma = math.log(1.01 / 0.99)
    zeros, buckets = 0, Counter()
    for n, value in enumerate(values, 1):
        sketch.add(value)
        stats.add(value)
        if value <= QuantileSketch.ZERO_EPSILON:
            zeros += 1
        else:
            buckets[math.ceil(math.log(value) / ln_gamma)] += 1
        low, high = min(values[:n]), max(values[:n])
        assert sketch.count == sketch._zero + sum(sketch._buckets.values()) == n
        assert (stats.minimum, stats.maximum) == (low, high)
        assert (sketch._zero, sketch._buckets) == (zeros, buckets)


def test_zero_values_occupy_zero_bucket():
    sketch = QuantileSketch()
    for _ in range(10):
        sketch.add(0.0)
    sketch.add(100.0)
    assert sketch.quantile(50.0) == 0.0
    assert sketch.quantile(100.0) == pytest.approx(100.0, rel=0.01)


def test_rejects_negative_values_and_bad_args():
    sketch = QuantileSketch()
    with pytest.raises(ValueError):
        sketch.add(-1.0)
    with pytest.raises(ValueError):
        QuantileSketch(rel_err=0.0)
    sketch.add(1.0)
    with pytest.raises(ValueError):
        sketch.quantile(101.0)


def test_empty_sketch_quantile_is_zero():
    assert QuantileSketch().quantile(50.0) == 0.0


# -- P2 (per-window p95) ------------------------------------------------------


def test_p2_exact_under_five_samples():
    est = P2Quantile(0.5)
    for v in (5.0, 1.0, 3.0):
        est.add(v)
    assert est.value() == 3.0


def test_p2_tracks_uniform_p95(rng):
    est = P2Quantile(0.95)
    values = [rng.uniform(0.0, 100.0) for _ in range(2000)]
    for v in values:
        est.add(v)
    # P2 is a five-marker heuristic: generous tolerance, not the sketch
    # contract.
    assert est.value() == pytest.approx(percentile(values, 95.0), rel=0.15)


def test_p2_rejects_bad_quantile():
    with pytest.raises(ValueError):
        P2Quantile(0.0)
    with pytest.raises(ValueError):
        P2Quantile(1.0)
