"""Recording presets: trace a canned experiment or a chaos seed.

``repro trace record`` calls into here.  Each preset builds a fresh
cluster, enables its :class:`~repro.obs.sink.TraceSink`, runs an
experiment's own script on its own configuration, and exports the run
directory via :func:`repro.obs.export.export_run`.

Presets (:data:`EXPERIMENT_PRESETS`):

* ``1`` — Experiment 1's copier scenario (E1-T3,
  :func:`repro.experiments.exp1.copier_scenario`): 4 sites, site 0 fails,
  misses updates, recovers, then coordinates; its reads of fail-locked
  copies generate copier transactions (the paper's §2.2.3 measurement).
* ``2`` — Experiment 2's Figure 1 run
  (:func:`repro.experiments.exp2.figure1_scenario`): 2 sites, site 0 down
  for 100 transactions, then recovering until its fail-locks drain.
* ``3`` — Experiment 3's scenario 2, Figure 3
  (:func:`repro.experiments.exp3.scenario2`): 4 sites failing singly in
  succession.
* ``smoke`` — a tiny 3-site fail/recover run for CI.

``record_chaos`` instead traces one :func:`repro.chaos.runner.run_chaos_seed`
run under a :data:`repro.chaos.PRESETS` fault plan, so invariant
violations land in the stream with causal context.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.errors import lookup
from repro.obs.export import export_run
from repro.obs.sink import TraceSink

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.system.config import SystemConfig
    from repro.system.scenario import Scenario

# Each preset imports what it runs when called, not at module top:
# repro.net imports repro.obs.events during its own init, which
# initializes this package — a top-level import of repro.system here
# would close that cycle.


def _exp1(seed: int) -> "tuple[SystemConfig, Scenario]":
    from repro.experiments.exp1 import WARM_TXNS, copier_scenario
    from repro.system.config import SystemConfig

    return SystemConfig(seed=seed), copier_scenario(WARM_TXNS)


def _exp2(seed: int) -> "tuple[SystemConfig, Scenario]":
    from repro.experiments.exp2 import figure1_scenario
    from repro.system.config import SystemConfig

    return SystemConfig.paper_experiment2(seed=seed), figure1_scenario()


def _exp3(seed: int) -> "tuple[SystemConfig, Scenario]":
    from repro.experiments.exp3 import scenario2
    from repro.system.config import SystemConfig

    return SystemConfig.paper_experiment3_scenario2(seed=seed), scenario2()


def _smoke(seed: int) -> "tuple[SystemConfig, Scenario]":
    from repro.system.config import SystemConfig
    from repro.system.scenario import FailSite, RecoverSite, Scenario

    config = SystemConfig(db_size=12, num_sites=3, max_txn_size=4, seed=seed)
    scenario = Scenario(txn_count=12, until_recovered=(0,), max_txns=500)
    scenario.add_action(2, FailSite(0))
    scenario.add_action(8, RecoverSite(0))
    return config, scenario


EXPERIMENT_PRESETS = {"1": _exp1, "2": _exp2, "3": _exp3, "smoke": _smoke}


def _scenario_for(exp: str, seed: int) -> "tuple[SystemConfig, Scenario]":
    return lookup(EXPERIMENT_PRESETS, exp, "experiment preset")(seed)


def record_experiment(
    exp: str, *, seed: int = 42, out_dir: Path
) -> dict[str, Any]:
    """Trace one experiment preset and export its run directory."""
    from repro.system.cluster import Cluster

    config, scenario = _scenario_for(exp, seed)
    with Cluster(config) as cluster:
        sink = cluster.obs
        sink.enabled = True
        cluster.run(scenario)
    return export_run(
        Path(out_dir),
        sink,
        scenario=f"exp{exp}",
        seed=seed,
        sites=config.num_sites,
        db_size=config.db_size,
        sim_time_ms=cluster.now,
    )


def record_chaos(
    chaos_seed: int,
    *,
    out_dir: Path,
    sites: int = 4,
    db_size: int = 32,
    txns: int = 60,
    mode: str = "default",
) -> dict[str, Any]:
    """Trace one chaos seed (faults + auditing on) under the fault plan
    :data:`repro.chaos.PRESETS` names ``mode``, and export it."""
    from repro.chaos.faults import PRESETS
    from repro.chaos.runner import run_chaos_seed

    plan = lookup(PRESETS, mode, "fault plan preset")()
    sink = TraceSink(enabled=True)
    result = run_chaos_seed(
        chaos_seed,
        sites=sites,
        db_size=db_size,
        txns=txns,
        plan=plan,
        trace=sink,
    )
    return export_run(
        Path(out_dir),
        sink,
        scenario=f"chaos-{mode}",
        seed=chaos_seed,
        sites=sites,
        db_size=db_size,
        sim_time_ms=result.sim_time_ms,
        violations=[asdict(record) for record in result.violations],
    )
