"""``Cluster.close``: a finished run gives its cluster back.

Every runner builds its cluster through ``with Cluster(config) as
cluster:`` (``run_schedule``, ``run_chaos_seed``, ``run_recovery_cell``,
which a sweep calls hundreds of times per process, ``run_soak`` /
``run_open_loop``, the Experiment 1–3 and ablation runners and
``record_experiment``), so it is closed on every exit path and freed by
reference counting rather than left to the cyclic collector.  Two things
are held here:

* the guard: with the collector off around a runner call,
  ``gc.collect()`` afterwards finds nothing — on a clean run, a steered
  one, a mutated one, one whose drive loop stalls and one that raises;
* a closed cluster still answers every count a finished run is read for
  (what ``bench/tracing.py``'s harvest reads), and a second ``close()``
  changes nothing.
"""

from __future__ import annotations

import dataclasses
import gc

import pytest

from repro.chaos.faults import FaultPlan
from repro.chaos.runner import run_chaos_seed
from repro.check.runner import CheckConfig, run_schedule
from repro.errors import SimulationError
from repro.experiments.ablations import (
    run_control_scaling,
    run_embedded_clearing,
    run_partition_anomaly,
)
from repro.experiments.exp1 import (
    run_control_overhead,
    run_copier_overhead,
    run_faillock_overhead,
)
from repro.experiments.exp2 import run_figure1
from repro.experiments.exp3 import run_scenario1
from repro.obs.record import record_experiment
from repro.recovery.experiment import run_recovery_cell
from repro.sim.scheduler import EventScheduler
from repro.site.site import DatabaseSite
from repro.soak.engine import SoakConfig, run_soak
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.system.openloop import run_open_loop

# The check-explore shape; this vector crashes sites 0 and 3, recovers 3
# and drops both CLEAR_FAILLOCKS notices its copier sends.
STEERED = CheckConfig(
    sites=4, db_size=8, txns=6, seed=42, explore_fates=True,
    max_branch=4, max_drops=2, max_crashes=2, max_recoveries=2,
)
STEERED_VECTOR = [1, 1, 0, 1, 1, 3, 0, 1, 0, 2, 0, 0, 0, 0, 1, 1]

RUNS = {
    "schedule-empty": lambda: run_schedule(CheckConfig()),
    "schedule-steered": lambda: run_schedule(
        STEERED, STEERED_VECTOR, fingerprint_at=range(40)
    ),
    "chaos-default": lambda: run_chaos_seed(3, txns=80),
    "chaos-lossy": lambda: run_chaos_seed(3, txns=80, plan=FaultPlan.lossy()),
    "chaos-mutate": lambda: run_chaos_seed(3, txns=80, mutate=True),
    "recovery-two_step": lambda: run_recovery_cell("two_step", 4, 64),
    "recovery-parallel": lambda: run_recovery_cell("parallel", 4, 64),
    # A fail/recover cycle under open-loop traffic, with locks.
    "soak": lambda: run_soak(SoakConfig(txns=300, seed=3)),
    "open-loop": lambda: run_open_loop(
        SystemConfig(concurrency_control=True, seed=5), txn_count=120
    ),
    "open-loop-streaming": lambda: run_open_loop(
        SystemConfig(concurrency_control=True, seed=5), txn_count=120,
        keep_records=False,
    ),
    # The paper's experiments: one cluster per run, or several.
    "exp1-faillock": lambda: run_faillock_overhead(txns=40),
    "exp1-control": run_control_overhead,
    "exp1-copier": lambda: run_copier_overhead(warm_txns=20),
    "exp2-figure1": lambda: run_figure1(down_txns=20, max_txns=200),
    "exp3-scenario1": lambda: run_scenario1(settle=False),
    "ablation-clearing": run_embedded_clearing,
    "ablation-scaling": run_control_scaling,
    "ablation-partition": run_partition_anomaly,
}


def cyclic_garbage(run) -> int:
    """Objects only the cyclic collector could free after ``run()``."""

    def call() -> None:
        try:
            run()
        except (RuntimeError, SimulationError):
            pass

    call()  # first-call costs (lazy imports, caches) are not the run's
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def test_the_steered_vector_takes_crashes_and_drops():
    result = run_schedule(STEERED, STEERED_VECTOR)
    taken = [d.labels[d.chosen] for d in result.decisions if d.chosen]
    assert sum("crash site" in label for label in taken) == 2
    assert sum(label.startswith("drop ") for label in taken) == 2


@pytest.mark.parametrize("name", sorted(RUNS))
def test_a_finished_run_leaves_no_cyclic_garbage(name):
    assert cyclic_garbage(RUNS[name]) == 0


def test_a_recorded_trace_leaves_no_cluster_behind(tmp_path):
    """``record_experiment`` closes its cluster too.  The collector still
    finds the stdlib's own cycle — ``json.dump`` with ``indent`` builds
    its encoder from closures — so the check is that none of it is ours."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        record_experiment("smoke", out_dir=tmp_path)
        gc.collect()
        ours = [o for o in gc.garbage if type(o).__module__.startswith("repro")]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert ours == []


def test_a_stalled_run_leaves_no_cyclic_garbage(monkeypatch):
    """The drive loop gives up with events still queued: the runaway
    guard fires, which the check and chaos runners report as a stall and
    the recovery cell raises."""
    run = EventScheduler.run
    monkeypatch.setattr(
        EventScheduler, "run", lambda self, max_events=0: run(self, 60)
    )
    assert RUNS["schedule-steered"]().stalled
    assert RUNS["chaos-lossy"]().stalled
    stalls = ("recovery-parallel", "soak", "open-loop")
    for name in stalls:
        with pytest.raises(SimulationError):
            RUNS[name]()
    for name in ("schedule-steered", "chaos-lossy", *stalls):
        assert cyclic_garbage(RUNS[name]) == 0


@pytest.mark.parametrize(
    "name", ["schedule-steered", "chaos-lossy", "recovery-two_step", "soak", "open-loop"]
)
def test_a_run_that_raises_leaves_no_cyclic_garbage(name, monkeypatch):
    handle = DatabaseSite.handle
    delivered = [0]

    def handle_then_raise(self, ctx, msg):
        delivered[0] += 1
        if delivered[0] % 20 == 0:
            raise RuntimeError("a handler failed mid-run")
        handle(self, ctx, msg)

    monkeypatch.setattr(DatabaseSite, "handle", handle_then_raise)
    with pytest.raises(RuntimeError):
        RUNS[name]()
    assert cyclic_garbage(RUNS[name]) == 0


# -- a closed cluster still answers -------------------------------------------------


def harvest(cluster: Cluster) -> dict:
    """Everything a finished run is read for, as plain values."""
    network = cluster.network
    reliable = network.reliable
    faults = getattr(network.interposer, "stats", None)
    return {
        "fired": cluster.scheduler.fired,
        "now": cluster.now,
        "config": cluster.config,
        "counters": cluster.metrics.counters.as_dict(),
        "recoveries": [dataclasses.astuple(r) for r in cluster.metrics.recoveries],
        "violations": len(getattr(cluster.sites[0].probe, "violations", ())),
        "messages": (
            network.messages_sent,
            network.messages_delivered,
            network.messages_undeliverable,
        ),
        "reliable": None if reliable is None else dataclasses.astuple(reliable.stats),
        "faults": None if faults is None else faults.total,
        "sites": [
            (
                site.alive,
                site.recovery.in_recovery,
                dataclasses.astuple(site.recovery.stats),
                site.lock_service,
                getattr(site.probe, "checks", None),
                site.db.signature(),
                site.faillocks.signature(),
            )
            for site in cluster.sites
        ],
    }


@pytest.fixture
def closes(monkeypatch):
    """Record, for every cluster a runner closes, its harvest before the
    close, after it, and after a second one."""
    seen: list[tuple[Cluster, list[dict]]] = []
    close = Cluster.close

    def recording_close(self):
        views = [harvest(self)]
        close(self)
        views.append(harvest(self))
        close(self)
        views.append(harvest(self))
        seen.append((self, views))

    monkeypatch.setattr(Cluster, "close", recording_close)
    return seen


@pytest.mark.parametrize(
    "name", ["schedule-steered", "chaos-lossy", "recovery-parallel"]
)
def test_a_closed_cluster_still_answers(name, closes):
    RUNS[name]()
    [(cluster, (before, after, again))] = closes
    assert before["fired"] and before["counters"]
    assert after == before and again == before
    # What close() let go of.
    assert not cluster.network.delivery_probes
    assert cluster.network.endpoint_memo is None
    assert cluster.manager.cluster is None
    assert cluster.scheduler.pending == 0
    for site in cluster.sites:
        assert site.coordinator is None and site.recovery_policy is None
        assert site.recovery.on_period_end is None


def test_the_lossy_layer_keeps_answering_tracks(closes):
    """``ReliableDelivery.tracks`` reads the exemption set it kept, not
    the closed network."""
    from repro.net.message import Message, MessageType

    RUNS["chaos-lossy"]()
    [(cluster, _views)] = closes
    reliable = cluster.network.reliable
    assert reliable.network is None and reliable.stats.tracked
    manager = cluster.config.manager_id
    assert reliable.tracks(Message(0, 1, MessageType.VOTE_REQ))
    assert not reliable.tracks(Message(manager, 1, MessageType.MGR_SUBMIT_TXN))
    assert not reliable.tracks(Message(0, 1, MessageType.NET_ACK))
