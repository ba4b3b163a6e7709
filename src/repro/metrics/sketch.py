"""Online quantile sketches with O(1)/O(log-range) memory.

Two estimators back the soak engine's latency reporting:

* :class:`QuantileSketch` — a DDSketch/HDR-style log-bucket histogram.
  Values land in geometric buckets sized so every bucket midpoint is
  within a configurable *relative* error ``rel_err`` of any value in the
  bucket.  Memory is bounded by the dynamic range of the data (one
  integer per occupied bucket), not by the sample count.

* :class:`P2Quantile` — the classic Jain & Chlamtac P² estimator: five
  markers tracking one target quantile in strictly O(1) memory.  It is
  a heuristic (no hard error bound) and is used where a full sketch per
  object would be wasteful, e.g. the per-window p95 gauge.

Error bound (documented contract, exercised by tests/test_metrics_sketch.py):
for a sketch built with ``rel_err = a``, ``quantile(p)`` returns a value
within relative error ``a`` of *some sample* whose rank brackets the
requested rank — i.e. it lies within ``[lo * (1 - a), hi * (1 + a)]``
where ``lo``/``hi`` are the order statistics flooring/ceiling the rank
``p/100 * (n - 1)``.  Unlike :func:`repro.metrics.stats.percentile`, no
interpolation *between* samples happens, so on gapped (e.g. bimodal)
data the sketch answers with a value near an actual sample rather than
a point inside the gap.
"""

from __future__ import annotations

import math

__all__ = ["P2Quantile", "QuantileSketch"]

_ceil = math.ceil
_log = math.log


class QuantileSketch:
    """Log-bucket quantile sketch for non-negative values."""

    __slots__ = ("rel_err", "_gamma", "_ln_gamma", "_buckets", "_zero", "count")

    # Values at or below this are indistinguishable from zero for latency
    # purposes and go to a dedicated zero bucket (log() needs v > 0).
    ZERO_EPSILON = 1e-9

    def __init__(self, rel_err: float = 0.01) -> None:
        if not 0.0 < rel_err < 1.0:
            raise ValueError(f"rel_err must be in (0, 1): {rel_err}")
        self.rel_err = rel_err
        self._gamma = (1.0 + rel_err) / (1.0 - rel_err)
        self._ln_gamma = math.log(self._gamma)
        self._buckets: dict[int, int] = {}
        self._zero = 0
        self.count = 0

    def add(self, value: float) -> None:
        if value < 0.0:
            raise ValueError(f"QuantileSketch holds non-negative values: {value}")
        self.count += 1
        if value <= self.ZERO_EPSILON:
            self._zero += 1
            return
        index = _ceil(_log(value) / self._ln_gamma)
        buckets = self._buckets
        buckets[index] = buckets.get(index, 0) + 1

    def _bucket_value(self, index: int) -> float:
        # Bucket i covers (gamma^(i-1), gamma^i]; this midpoint-in-log
        # estimate is within rel_err relative error of the whole range.
        return 2.0 * self._gamma**index / (self._gamma + 1.0)

    def quantile(self, p: float) -> float:
        """The ``p``-th percentile (0..100); 0.0 on an empty sketch."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100]: {p}")
        if self.count == 0:
            return 0.0
        rank = (p / 100.0) * (self.count - 1)
        seen = self._zero
        if seen > rank:
            return 0.0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen > rank:
                return self._bucket_value(index)
        return self._bucket_value(max(self._buckets))

    @property
    def bucket_count(self) -> int:
        """Occupied buckets — the sketch's actual memory footprint."""
        return len(self._buckets) + (1 if self._zero else 0)

    def __repr__(self) -> str:
        return (
            f"QuantileSketch(rel_err={self.rel_err}, n={self.count}, "
            f"buckets={self.bucket_count})"
        )


class P2Quantile:
    """Jain & Chlamtac's P² single-quantile estimator (O(1) memory)."""

    __slots__ = ("q", "_heights", "_positions", "_desired", "_increments",
                 "count")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1): {q}")
        self.q = q
        self._heights: list[float] = []
        self._positions = [0.0, 1.0, 2.0, 3.0, 4.0]
        self._desired = [0.0, 2.0 * q, 4.0 * q, 2.0 + 2.0 * q, 4.0]
        self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
        self.count = 0

    def add(self, value: float) -> None:
        self.count += 1
        h = self._heights
        if len(h) < 5:
            h.append(value)
            h.sort()
            return
        n = self._positions
        # Clamp the end markers, then shift every marker above cell k (the
        # first k with value < h[k + 1]) one place.
        if value < h[0]:
            h[0] = value
            k = 0
        elif value >= h[4]:
            h[4] = value
            k = 3
        else:
            k = 0 if value < h[1] else 1 if value < h[2] else 2 if value < h[3] else 3
        if k == 0:
            n[1] += 1.0
        if k <= 1:
            n[2] += 1.0
        if k <= 2:
            n[3] += 1.0
        n[4] += 1.0
        # Only the middle markers' desired positions are ever read.
        desired, increments = self._desired, self._increments
        desired[1] += increments[1]
        desired[2] += increments[2]
        desired[3] += increments[3]
        # Move each middle marker at most one place towards its desired
        # position, in order 1, 2, 3 (each test sees the moves before it).
        d = desired[1] - n[1]
        if (d >= 1.0 and n[2] - n[1] > 1.0) or (d <= -1.0 and n[0] - n[1] < -1.0):
            self._move(1, d)
        d = desired[2] - n[2]
        if (d >= 1.0 and n[3] - n[2] > 1.0) or (d <= -1.0 and n[1] - n[2] < -1.0):
            self._move(2, d)
        d = desired[3] - n[3]
        if (d >= 1.0 and n[4] - n[3] > 1.0) or (d <= -1.0 and n[2] - n[3] < -1.0):
            self._move(3, d)

    def _move(self, i: int, d: float) -> None:
        h = self._heights
        d = 1.0 if d > 0 else -1.0
        candidate = self._parabolic(i, d)
        if not h[i - 1] < candidate < h[i + 1]:
            candidate = self._linear(i, d)
        h[i] = candidate
        self._positions[i] += d

    def _parabolic(self, i: int, d: float) -> float:
        h, n = self._heights, self._positions
        return h[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        h, n = self._heights, self._positions
        j = i + int(d)
        return h[i] + d * (h[j] - h[i]) / (n[j] - n[i])

    def value(self) -> float:
        """Current estimate; exact while fewer than five samples seen."""
        h = self._heights
        if not h:
            return 0.0
        if self.count < 5:
            # Exact nearest-rank answer from the (sorted) bootstrap buffer.
            rank = self.q * (len(h) - 1)
            return h[min(len(h) - 1, round(rank))]
        return h[2]

    def __repr__(self) -> str:
        return f"P2Quantile(q={self.q}, n={self.count}, est={self.value():.3f})"
