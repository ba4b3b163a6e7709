"""Measurement infrastructure.

The paper instruments mini-RAID "in the software by referencing the
processor clock"; here the simulated clock plays that role.  The collector
accumulates per-transaction records, control-transaction durations, and
fail-lock samples — the raw series from which every table and figure in the
paper is regenerated.
"""

from repro.metrics.stats import mean, median, stddev, percentile, summarize, Summary
from repro.metrics.counters import CounterSet
from repro.metrics.records import (
    TxnRecord,
    ControlRecord,
    FailLockSample,
    ViolationRecord,
)
from repro.metrics.collector import MetricsCollector
from repro.metrics.availability import availability_of, AvailabilityReport
from repro.metrics.sketch import P2Quantile, QuantileSketch
from repro.metrics.streaming import (
    LatencyDigest,
    ReservoirSample,
    StreamingStats,
    StreamingTxnSink,
    Window,
    WindowedSeries,
)

__all__ = [
    "mean",
    "median",
    "stddev",
    "percentile",
    "summarize",
    "Summary",
    "CounterSet",
    "TxnRecord",
    "ControlRecord",
    "FailLockSample",
    "ViolationRecord",
    "MetricsCollector",
    "availability_of",
    "AvailabilityReport",
    "P2Quantile",
    "QuantileSketch",
    "StreamingStats",
    "LatencyDigest",
    "ReservoirSample",
    "Window",
    "WindowedSeries",
    "StreamingTxnSink",
]
