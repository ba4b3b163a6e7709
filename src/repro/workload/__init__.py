"""Workload generators.

The paper's managing site generated transactions with "a random number of
operations (from 1 to the maximum specified for the system)", each
operation equally likely a read or a write, each on a uniformly random item
from the frequently-referenced portion of the database (§1.2).  That is
:class:`UniformWorkload`.

The paper's §5 discussion and future work motivate the rest: a tunable
read/write ratio ("studies have shown that typically reads are far more
common than writes"), Zipf-skewed popularity, and the ET1 (DebitCredit) and
Wisconsin benchmarks the authors planned to repeat the experiments with.
"""

from repro.workload.base import WorkloadGenerator
from repro.workload.uniform import UniformWorkload
from repro.workload.readwrite import ReadWriteWorkload
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
    WisconsinMixWorkload,
    next_arrival_ms,
)

__all__ = [
    "WorkloadGenerator",
    "UniformWorkload",
    "ReadWriteWorkload",
    "ZipfGenerator",
    "ZipfWorkload",
    "Et1Workload",
    "WisconsinWorkload",
    "DebitCreditWorkload",
    "WisconsinMixWorkload",
    "LoadShape",
    "ConstantShape",
    "RampShape",
    "DiurnalShape",
    "FlashCrowdShape",
    "HotKeyStormWorkload",
    "next_arrival_ms",
]
