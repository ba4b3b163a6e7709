"""Workload generators.

The paper's managing site generated transactions with "a random number of
operations (from 1 to the maximum specified for the system)", each
operation equally likely a read or a write, each on a uniformly random item
from the frequently-referenced portion of the database (§1.2).  That is
:class:`UniformWorkload`.

Its ``write_probability`` is the read/write ratio the paper's §5
discussion asks to vary ("studies have shown that typically reads are far
more common than writes"); it and the future work motivate the rest:
Zipf-skewed popularity, and the ET1 (DebitCredit) and Wisconsin benchmarks
the authors planned to repeat the experiments with.
"""

from repro.workload.base import WorkloadGenerator
from repro.workload.uniform import UniformWorkload
from repro.workload.zipf import ZipfGenerator, ZipfWorkload
from repro.workload.et1 import Et1Workload
from repro.workload.wisconsin import WisconsinWorkload
from repro.workload.shapes import (
    ConstantShape,
    DebitCreditWorkload,
    DiurnalShape,
    FlashCrowdShape,
    HotKeyStormWorkload,
    LoadShape,
    RampShape,
    next_arrival_ms,
)

__all__ = [
    "WorkloadGenerator",
    "UniformWorkload",
    "ZipfGenerator",
    "ZipfWorkload",
    "Et1Workload",
    "WisconsinWorkload",
    "DebitCreditWorkload",
    "LoadShape",
    "ConstantShape",
    "RampShape",
    "DiurnalShape",
    "FlashCrowdShape",
    "HotKeyStormWorkload",
    "next_arrival_ms",
]
