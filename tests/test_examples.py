"""Every script under ``examples/`` runs to completion.

Nothing else executes them, and ``strategy_comparison.py`` is one of the
two consumers of :mod:`repro.replication`.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def test_all_seven_examples_are_collected():
    assert len(EXAMPLES) == 7


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(script)])  # failure_recovery reads a seed
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out.strip()
