"""Skipped releases: ``EventScheduler.run`` against the choosing loop.

Inside :meth:`EventScheduler.run` an activation whose release would carry
no message, timer or completion posts none: the scheduler counts it as
fired and ends the run at its time instead.  The choosing loop still sees
every release, and with a hook that always answers 0 it fires exactly the
default order — so it is the reference.  The same soak, open-loop run,
lossy chaos seed and recovery cell go through both: every run must fire
as many events, end at the same instant and produce equal outputs, while
the plain loop dispatches fewer releases.
"""

from __future__ import annotations

import json

import pytest

from repro.chaos.faults import FaultPlan
from repro.chaos.runner import run_chaos_seed
from repro.net.network import Network
from repro.recovery.experiment import run_recovery_cell
from repro.sim.scheduler import EventScheduler
from repro.soak.engine import SoakConfig, run_soak
from repro.soak.report import build_report
from repro.system.config import SystemConfig
from repro.system.openloop import run_open_loop

RUNS = {
    "soak": lambda: build_report(run_soak(SoakConfig(txns=400, seed=7))),
    "open-loop": lambda: run_open_loop(
        SystemConfig(concurrency_control=True, cores=3, seed=11), txn_count=150
    ),
    "chaos-lossy": lambda: run_chaos_seed(455410715, txns=80, plan=FaultPlan.lossy()),
    "recovery-parallel": lambda: run_recovery_cell("parallel", 4, 64),
}


def observed(run, monkeypatch, choosing: bool):
    """``run()``'s output, with each scheduler run's ``(returned, fired,
    clock)`` and the number of releases dispatched."""
    runs = []
    releases = [0]
    scheduler_run = EventScheduler.run
    release = Network._release_activation

    def run_once(self, max_events=10_000_000):
        if choosing:
            self.tie_breaker = lambda tied: 0
        returned = scheduler_run(self, max_events)
        runs.append((returned, self.fired, self.now))
        return returned

    def counted_release(self, *args):
        releases[0] += 1
        release(self, *args)

    monkeypatch.setattr(EventScheduler, "run", run_once)
    monkeypatch.setattr(Network, "_release_activation", counted_release)
    try:
        output = run()
    finally:
        monkeypatch.undo()
    return output, runs, releases[0]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_the_choosing_loop(name, monkeypatch):
    plain, plain_runs, plain_releases = observed(RUNS[name], monkeypatch, False)
    chosen, chosen_runs, chosen_releases = observed(RUNS[name], monkeypatch, True)
    assert plain_runs == chosen_runs
    if isinstance(plain, dict):
        assert json.dumps(plain, sort_keys=True) == json.dumps(chosen, sort_keys=True)
    else:
        assert plain == chosen
    assert plain_releases < chosen_releases
