"""The recovery-time experiment family.

One *cell* of the matrix measures a single recovery period end to end:
a cluster of ``donors + 1`` sites is built, site 0 is crashed cold (so
every one of its ``stale_items`` copies is stale on return), brought
back up, and driven until its last fail-lock clears.  The measured
quantity is the paper's recovery-window length — type-1 completion to
last fail-lock clear — read straight from the site's
:class:`~repro.core.recovery.RecoveryStats`.

The matrix sweeps that cell over donor count x stale-data size x
recovery policy.  ``two_step`` runs with ``batch_threshold=1.0`` so it
batch-copies *everything* from a single donor (the sequential baseline
the parallel engine is compared against); ``parallel`` fans out to every
donor.  Everything is seeded simulation, so the whole matrix — and the
``repro.recovery/1`` report built from it — is byte-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.recovery import RecoveryPolicy
from repro.errors import ConfigurationError, SimulationError
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.system.scenario import FailSite, RecoverSite, Scenario, Weighted
from repro.workload.uniform import UniformWorkload

__all__ = ["RecoveryCell", "run_recovery_cell", "run_recovery_matrix"]

# Matrix defaults.  Donor counts bracket the acceptance point (>= 1.5x at
# 4+ donors); stale sizes span "a few batches" to "most of a database".
DEFAULT_DONORS = (1, 2, 4, 6)
DEFAULT_STALE_SIZES = (16, 32, 64)
DEFAULT_POLICIES = ("two_step", "parallel")


@dataclass(slots=True)
class RecoveryCell:
    """One measured recovery period (one matrix point)."""

    policy: str
    donors: int
    stale_items: int
    recovery_ms: float
    initial_stale: int
    copier_requests: int
    batch_copier_requests: int
    refreshed_by_write: int
    refreshed_by_copier: int


def run_recovery_cell(
    policy: str,
    donors: int,
    stale_items: int,
    *,
    seed: int = 42,
    wire_latency_ms: float = 9.0,
) -> RecoveryCell:
    """Measure one recovery period under ``policy`` with ``donors`` fresh
    sources and ``stale_items`` stale copies at the riser.

    The cluster gets ``donors + 2`` cores: enough that every donor's
    COPY_RESP formatting can overlap (the parallelism the engine
    exploits), while the wire latency keeps each exchange long enough
    that overlap matters.  Site 0 never coordinates (zero submission
    weight), so its recovery window is driven purely by copier traffic
    and incoming writes — the paper's §4 shape.
    """
    if donors < 1:
        raise ConfigurationError(f"donors must be >= 1: {donors}")
    if stale_items < 1:
        raise ConfigurationError(f"stale_items must be >= 1: {stale_items}")
    config = SystemConfig(
        num_sites=donors + 1,
        db_size=stale_items,
        seed=seed,
        cores=donors + 2,
        wire_latency_ms=wire_latency_ms,
        # A cold crash wipes site 0's copies, so every item it holds is
        # stale when it returns — stale_items IS the stale-data size.
        cold_recovery=True,
        recovery_policy=RecoveryPolicy(policy),
        # two_step with threshold 1.0 batch-copies the full stale set
        # from one donor per round: the sequential baseline.  parallel
        # ignores the threshold (it always fans out).
        batch_threshold=1.0,
    )
    cluster = Cluster(config)
    weights = {0: 0.0}
    weights.update({s: 1.0 for s in range(1, donors + 1)})
    scenario = Scenario(
        workload=UniformWorkload(config.item_ids, config.max_txn_size),
        txn_count=2,
        policy=Weighted(weights),
        until_recovered=(0,),
        # A backstop, not a budget: until_recovered ends the run first.
        # It grows with the stale set because on_demand refreshes only
        # what transactions touch, so its tail needs many of them.
        max_txns=max(200, 16 * stale_items),
    )
    scenario.add_action(1, FailSite(0))
    scenario.add_action(2, RecoverSite(0))
    try:
        cluster.run(scenario)
    finally:
        cluster.close()
    stats = cluster.site(0).recovery.stats
    if not stats.complete:
        raise SimulationError(
            f"recovery cell did not close its period "
            f"(policy={policy}, donors={donors}, stale={stale_items})"
        )
    return RecoveryCell(
        policy=policy,
        donors=donors,
        stale_items=stale_items,
        recovery_ms=stats.finished_at - stats.started_at,
        initial_stale=stats.initial_stale,
        copier_requests=stats.copier_requests,
        batch_copier_requests=stats.batch_copier_requests,
        refreshed_by_write=stats.refreshed_by_write,
        refreshed_by_copier=stats.refreshed_by_copier,
    )


def run_recovery_matrix(
    *,
    donor_counts: Iterable[int] = DEFAULT_DONORS,
    stale_sizes: Iterable[int] = DEFAULT_STALE_SIZES,
    policies: Iterable[str] = DEFAULT_POLICIES,
    seed: int = 42,
    wire_latency_ms: float = 9.0,
) -> list[RecoveryCell]:
    """The full sweep, in fixed (policy, donors, stale) nesting order so
    the cell list — and every report built from it — is deterministic."""
    cells: list[RecoveryCell] = []
    for policy in policies:
        for donor_count in donor_counts:
            for stale in stale_sizes:
                cells.append(
                    run_recovery_cell(
                        policy,
                        donor_count,
                        stale,
                        seed=seed,
                        wire_latency_ms=wire_latency_ms,
                    )
                )
    return cells
