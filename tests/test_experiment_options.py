"""Experiment runner options beyond the defaults."""

import pytest

from repro.experiments import run_figure1, run_scenario1
from repro.system.config import SystemConfig
from repro.workload.et1 import Et1Workload
from repro.workload.uniform import UniformWorkload


def test_figure1_with_custom_workload():
    workload = Et1Workload(list(range(50)))
    result = run_figure1(seed=3, workload=workload)
    assert result.report.peak_locks > 10
    assert result.report.txns_to_recover > 0


def test_figure1_recovering_share_zero_means_no_copiers():
    result = run_figure1(seed=3, recovering_share=0.0)
    assert result.copiers == 0
    assert result.report.txns_to_recover > 0


def test_figure1_shorter_down_window():
    short = run_figure1(seed=3, down_txns=20)
    long = run_figure1(seed=3, down_txns=100)
    assert short.report.peak_locks < long.report.peak_locks


def test_figure1_respects_max_txns_cap():
    result = run_figure1(seed=3, max_txns=120)
    assert len(result.metrics.txns) == 120


def test_scenario1_settle_flag():
    unsettled = run_scenario1(seed=3, settle=False)
    settled = run_scenario1(seed=3, settle=True)
    assert len(settled.metrics.txns) >= len(unsettled.metrics.txns)
    assert all(v == 0 for v in settled.final_locks.values())


def test_figure1_read_heavy_workload_needs_more_copiers():
    balanced = run_figure1(seed=5, recovering_share=0.3)
    read_heavy = run_figure1(
        seed=5,
        recovering_share=0.3,
        workload=UniformWorkload(list(range(50)), 5, write_probability=0.15),
    )
    # The §5 prediction again, through the figure-1 runner.
    assert read_heavy.copiers >= balanced.copiers


@pytest.mark.parametrize(
    "write_probability, peak", [(0.1, 19), (0.5, 48), (0.9, 50)]
)
def test_figure1_reads_the_configured_write_probability(write_probability, peak):
    """The configuration's read/write ratio reaches the paper's workload:
    fewer writes leave fewer of site 0's copies fail-locked, and even odds
    are the paper's run (EXPERIMENTS.md's peak of 48)."""
    config = SystemConfig.paper_experiment2(
        seed=42, write_probability=write_probability
    )
    assert run_figure1(config=config).report.peak_locks == peak

