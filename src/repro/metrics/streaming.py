"""Streaming (O(1)-memory) aggregation of transaction outcomes.

The exact-record pipeline (:class:`repro.metrics.MetricsCollector` keeping
one :class:`TxnRecord` per transaction) grows linearly with run length,
which caps the §3 availability experiments at toy transaction counts.
This module provides the aggregation sink the soak engine uses instead:

* :class:`StreamingStats` — Welford mean/variance plus min/max;
* :class:`LatencyDigest` — stats + a :class:`QuantileSketch` for
  p50/p95/p99 with a documented relative-error bound;
* :class:`ReservoirSample` — Algorithm-R uniform sample of exemplar
  transactions, driven by an injected seeded stream so soak runs stay
  byte-deterministic;
* :class:`WindowedSeries` — fixed-width time windows of arrivals,
  completions, latency, and gauge snapshots (in-flight, fail-locks) —
  O(sim-duration / window), independent of transaction count;
* :class:`StreamingTxnSink` — the ``MetricsCollector``-compatible sink
  tying those together; consumes each :class:`TxnRecord` at completion
  time and retains only aggregates.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.metrics.records import TxnRecord
from repro.metrics.sketch import P2Quantile, QuantileSketch
from repro.metrics.stats import Summary
from repro.sim.rng import RandomStream

__all__ = [
    "StreamingStats",
    "LatencyDigest",
    "ReservoirSample",
    "Window",
    "WindowedSeries",
    "StreamingTxnSink",
]


class StreamingStats:
    """Welford online mean/variance with min/max; constant memory."""

    __slots__ = ("count", "mean", "_m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        count = self.count = self.count + 1
        mean = self.mean
        delta = value - mean
        mean = self.mean = mean + delta / count
        self._m2 += delta * (value - mean)
        # Plain comparisons: exactly what min() / max() decide, without
        # two builtin calls per sample.
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def variance(self) -> float:
        """Population variance, matching :func:`repro.metrics.stats.stddev`."""
        return self._m2 / self.count if self.count >= 2 else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def __repr__(self) -> str:
        return f"StreamingStats(n={self.count}, mean={self.mean:.3f})"


class LatencyDigest:
    """Streaming latency summary: moments plus quantile sketch."""

    __slots__ = ("stats", "sketch")

    def __init__(self, rel_err: float = 0.01) -> None:
        self.stats = StreamingStats()
        self.sketch = QuantileSketch(rel_err)

    def add(self, value: float) -> None:
        self.stats.add(value)
        self.sketch.add(value)

    @property
    def count(self) -> int:
        return self.stats.count

    def quantile(self, p: float) -> float:
        return self.sketch.quantile(p)

    def to_summary(self) -> Summary:
        """A :class:`Summary` shaped like :func:`summarize` — median and
        p95 come from the sketch, so they carry its relative-error bound."""
        if self.count == 0:
            return Summary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return Summary(
            count=self.count,
            mean=self.stats.mean,
            median=self.sketch.quantile(50.0),
            stddev=self.stats.stddev,
            minimum=self.stats.minimum,
            maximum=self.stats.maximum,
            p95=self.sketch.quantile(95.0),
        )


class ReservoirSample:
    """Algorithm-R uniform reservoir of at most ``k`` items.

    Draws come from an injected :class:`RandomStream` (one ``randrange``
    per item past the first ``k``), so a seeded run samples the same
    exemplars every time.  ``offer(item, build)`` keeps ``build(item)``
    and calls ``build`` only for an item the reservoir keeps.
    """

    __slots__ = ("k", "_rng", "items", "seen")

    def __init__(self, k: int, rng: RandomStream) -> None:
        if k < 0:
            raise ValueError(f"reservoir size must be >= 0: {k}")
        self.k = k
        self._rng = rng
        self.items: list = []
        self.seen = 0

    def offer(self, item, build: Optional[Callable] = None) -> None:
        self.seen += 1
        if self.k == 0:
            return
        if len(self.items) < self.k:
            self.items.append(item if build is None else build(item))
            return
        slot = self._rng.randrange(self.seen)
        if slot < self.k:
            self.items[slot] = item if build is None else build(item)

    def __len__(self) -> int:
        return len(self.items)


class Window:
    """One fixed-width time window of the soak series."""

    __slots__ = ("index", "start_ms", "arrivals", "commits", "aborts",
                 "latency", "p95", "in_flight", "faillocks")

    def __init__(self, index: int, start_ms: float) -> None:
        self.index = index
        self.start_ms = start_ms
        self.arrivals = 0
        self.commits = 0
        self.aborts = 0
        self.latency = StreamingStats()
        self.p95 = P2Quantile(0.95)
        # Gauges sampled when the window opens (see WindowedSeries.on_open).
        self.in_flight = 0
        self.faillocks = 0

    @property
    def done(self) -> int:
        return self.commits + self.aborts

    @property
    def availability(self) -> Optional[float]:
        """Committed fraction of completions; None when nothing completed."""
        if self.done == 0:
            return None
        return self.commits / self.done


class WindowedSeries:
    """Contiguous fixed-width windows from t=0 onward.

    ``on_open`` (if set) is called for every newly created window, which
    is where the engine snapshots gauges (in-flight count, fail-lock
    total).  Windows are created lazily but contiguously, so quiet spans
    still appear in the series as empty windows.
    """

    __slots__ = ("window_ms", "windows", "on_open")

    def __init__(
        self,
        window_ms: float,
        on_open: Optional[Callable[[Window], None]] = None,
    ) -> None:
        if window_ms <= 0:
            raise ValueError(f"window_ms must be positive: {window_ms}")
        self.window_ms = window_ms
        self.windows: list[Window] = []
        self.on_open = on_open

    def _window_at(self, t_ms: float) -> Window:
        index = int(t_ms // self.window_ms)
        if index < 0:
            index = 0
        windows = self.windows
        while len(windows) <= index:
            window = Window(len(windows), len(windows) * self.window_ms)
            windows.append(window)
            if self.on_open is not None:
                self.on_open(window)
        return windows[index]

    def note_arrival(self, t_ms: float) -> None:
        self._window_at(t_ms).arrivals += 1

    def note_done(
        self, t_ms: float, committed: bool, latency_ms: Optional[float]
    ) -> None:
        window = self._window_at(t_ms)
        if committed:
            window.commits += 1
        else:
            window.aborts += 1
        if latency_ms is not None:
            window.latency.add(latency_ms)
            window.p95.add(latency_ms)

    def __len__(self) -> int:
        return len(self.windows)


class StreamingTxnSink:
    """Aggregates finished transactions without retaining records.

    Attach via ``MetricsCollector(txn_sink=..., retain_txns=False)``; every
    :class:`TxnRecord` still flows through ``record_txn`` (counters keep
    working) but lands here instead of an ever-growing list.
    """

    __slots__ = ("latency_all", "latency_committed", "abort_reasons",
                 "windows", "exemplars")

    def __init__(
        self,
        window_ms: float = 1000.0,
        rel_err: float = 0.01,
        exemplar_k: int = 0,
        exemplar_rng: Optional[RandomStream] = None,
        on_window_open: Optional[Callable[[Window], None]] = None,
    ) -> None:
        if exemplar_k and exemplar_rng is None:
            raise ValueError("exemplar sampling needs an injected RandomStream")
        self.latency_all = LatencyDigest(rel_err)
        self.latency_committed = LatencyDigest(rel_err)
        self.abort_reasons: dict[str, int] = {}
        self.windows = WindowedSeries(window_ms, on_open=on_window_open)
        self.exemplars = ReservoirSample(exemplar_k, exemplar_rng)

    def __call__(self, record: TxnRecord) -> None:
        elapsed = record.elapsed
        self.latency_all.add(elapsed)
        if record.committed:
            self.latency_committed.add(elapsed)
        else:
            reason = record.abort_reason.value if record.abort_reason else "unknown"
            self.abort_reasons[reason] = self.abort_reasons.get(reason, 0) + 1
        self.windows.note_done(record.finished_at, record.committed, elapsed)
        if self.exemplars.k:
            self.exemplars.offer(record, _exemplar_of)

    def note_arrival(self, t_ms: float) -> None:
        self.windows.note_arrival(t_ms)

    def abort_count(self, reason: str) -> int:
        return self.abort_reasons.get(reason, 0)


def _exemplar_of(record: TxnRecord) -> dict:
    """Compact, JSON-ready exemplar of one transaction."""
    aborted = record.abort_reason is not None and record.abort_reason.value != "none"
    return {
        "txn": record.txn_id,
        "coordinator": record.coordinator,
        "committed": record.committed,
        "abort_reason": record.abort_reason.value if aborted else None,
        "size": record.size,
        "submitted_at": record.submitted_at,
        "latency_ms": record.elapsed,
    }
