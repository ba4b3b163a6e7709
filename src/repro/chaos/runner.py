"""Chaos run orchestration: one seed, or a sweep of them.

:func:`run_chaos_seed` wires a standard cluster with the fault
interposition layer and the invariant auditor, generates a randomized
fail/recover schedule from the same root seed, runs it to quiescence, and
returns a :class:`ChaosRunResult`.  :func:`run_seed_sweep` repeats that
over a seed list and aggregates a :class:`ChaosSweepReport`.

Mutation mode (``mutate=True``) deliberately breaks the protocol —
fail-lock *setting* is disabled while clearing still works, so commits
past a down site silently stop marking its copies stale — to prove the
auditor detects real bugs rather than vacuously passing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Iterable, Optional

from repro.chaos.faults import FaultPlan, FaultStats
from repro.chaos.interpose import FaultInjector
from repro.chaos.invariants import InvariantAuditor
from repro.chaos.schedule import build_chaos_scenario
from repro.core.faillocks import FailLockTable
from repro.errors import ConfigurationError
from repro.metrics.records import ViolationRecord
from repro.net.reliable import ReliableStats
from repro.perf.pool import run_chunked
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.obs.sink import TraceSink


class NeuteredFailLockTable(FailLockTable):
    """A fail-lock table that never *sets* a lock (mutation mode).

    Clearing still works, so the bug is one-sided: sites that miss updates
    are silently treated as current — exactly the corruption the paper's
    protocol exists to prevent, and exactly what the ``faillock-coverage``
    and ``convergence`` invariants must catch.

    Installed by swapping ``__class__`` on live tables so every alias the
    site's roles hold (recovery manager, planner) sees the broken behavior.
    """

    # Empty slots keep the object layout identical to the parent, which
    # the live ``__class__`` swap requires.
    __slots__ = ()

    def set_locks(self, item_ids: Iterable[int], site_id: int) -> None:
        # ``set_lock`` delegates here too.  Keep validation, skip the write.
        self._bit(site_id)
        self._known(item_ids)

    def update_with_recipients(
        self, recipients_of: dict[int, Iterable[int]]
    ) -> int:
        count = 0
        for item, recipients in recipients_of.items():
            recipient_mask = 0
            for site in recipients:
                recipient_mask |= self._bit(site)
            old = self._mask(item)
            if old & recipient_mask:
                self._store(item, old, old & ~recipient_mask)
            count += len(self.site_ids)
        return count


def neuter_faillocks(cluster: Cluster) -> None:
    """Install the mutation at every site of a built cluster."""
    for site in cluster.sites:
        site.faillocks.__class__ = NeuteredFailLockTable


@dataclass(slots=True)
class ChaosRunResult:
    """Everything one chaos seed produced."""

    seed: int
    txns: int
    commits: int
    aborts: int
    sim_time_ms: float
    fault_stats: FaultStats
    schedule_actions: int
    checks: int
    violations: list[ViolationRecord]
    mutated: bool
    stalled: bool
    # ``None`` without the retransmission sublayer.
    net_stats: Optional[ReliableStats]
    # Scheduler events fired during the run (benchmark denominator; also a
    # cheap replay fingerprint — a divergent replay rarely fires the same
    # number of events).
    events_fired: int
    # Recovery periods closed; one is ``interrupted`` when its site failed
    # again before the last fail-lock cleared — the flapping-site case.
    recovery_periods: int
    interrupted_recoveries: int

    @property
    def clean(self) -> bool:
        """True if no invariant violation was flagged."""
        return not self.violations

    def violation_fingerprint(self) -> str:
        """Stable digest of *what* went wrong, ignoring *when*.

        Hashes the ordered (invariant, description, txn, site, item)
        tuples of every violation — everything but the sim-time field, so
        two seeds whose schedules produce the same violating behaviour at
        different instants collapse to one fingerprint.  Empty string for
        clean runs.  Used by the sweep report to dedupe repeated
        violating schedules, and stable across processes (``hashlib``,
        not the ``PYTHONHASHSEED``-randomized builtin ``hash``).
        """
        if not self.violations:
            return ""
        import hashlib

        raw = repr(
            [
                (v.invariant, v.description, v.txn_id, v.site_id, v.item_id)
                for v in self.violations
            ]
        )
        return hashlib.blake2b(raw.encode(), digest_size=8).hexdigest()


@dataclass(slots=True)
class ChaosSweepReport:
    """Aggregate of a multi-seed chaos sweep."""

    plan: FaultPlan
    results: list[ChaosRunResult] = field(default_factory=list)
    mutated: bool = False

    @property
    def total_violations(self) -> int:
        return sum(len(r.violations) for r in self.results)

    @property
    def total_checks(self) -> int:
        return sum(r.checks for r in self.results)

    @property
    def dirty_seeds(self) -> list[int]:
        """Seeds that flagged at least one violation."""
        return [r.seed for r in self.results if not r.clean]

    @property
    def stalled_seeds(self) -> list[int]:
        """Seeds whose drive loop stalled (liveness failures)."""
        return [r.seed for r in self.results if r.stalled]


def run_chaos_seed(
    seed: int,
    *,
    sites: int = 4,
    db_size: int = 32,
    txns: int = 60,
    plan: Optional[FaultPlan] = None,
    mutate: bool = False,
    audit: bool = True,
    trace: Optional["TraceSink"] = None,
) -> ChaosRunResult:
    """Run one randomized chaos scenario under ``seed``.

    The same seed drives the workload, the message faults, and the site
    fault schedule (via independent named streams), so a (seed, plan,
    shape) triple replays byte-identically.

    Pass an enabled :class:`~repro.obs.sink.TraceSink` as ``trace`` to
    capture the run's structured trace (repro.obs); tracing is pure
    observation and does not perturb the simulation.
    """
    if plan is None:
        plan = FaultPlan()
    plan.validate()
    # The full fault model needs the layers that make it survivable: the
    # retransmission sublayer (silent drops) and the 2PC timeouts /
    # termination protocol (blocked transactions).
    config = SystemConfig(
        db_size=db_size,
        num_sites=sites,
        seed=seed,
        wire_latency_ms=2.0,
        reliable_delivery=plan.full_fault_model,
        timeouts_enabled=plan.full_fault_model,
        # Partition-mid-recovery arcs rejoin the isolated site via a fresh
        # fail + type-1; the crash must be cold so writes it committed
        # solo while isolated are discarded instead of surviving as
        # phantom versions no fail-lock covers.
        cold_recovery=plan.partition_mid_recovery,
    )
    with Cluster(config) as cluster:
        if trace is not None:
            cluster.network.obs = trace
        if mutate:
            neuter_faillocks(cluster)
        injector = FaultInjector(plan, cluster.rng.stream("chaos.faults"))
        cluster.network.interposer = injector
        scenario = build_chaos_scenario(
            config, plan, cluster.rng.stream("chaos.schedule"), txn_count=txns
        )
        schedule_actions = sum(len(actions) for actions in scenario.actions.values())
        auditor = InvariantAuditor(cluster) if audit else None
        if auditor is not None:
            stalled = auditor.run(scenario)
        else:
            cluster.run(scenario)
            stalled = False
        return ChaosRunResult(
            seed=seed,
            txns=txns,
            commits=cluster.metrics.counters.get("commits"),
            aborts=cluster.metrics.counters.get("aborts"),
            sim_time_ms=cluster.now,
            fault_stats=injector.stats,
            schedule_actions=schedule_actions,
            checks=auditor.checks if auditor is not None else 0,
            violations=list(auditor.violations) if auditor is not None else [],
            mutated=mutate,
            stalled=stalled,
            net_stats=(
                cluster.network.reliable.stats
                if cluster.network.reliable is not None
                else None
            ),
            events_fired=cluster.scheduler.fired,
            recovery_periods=cluster.metrics.counters.get("recovery_periods"),
            interrupted_recoveries=cluster.metrics.counters.get(
                "recovery_periods_interrupted"
            ),
        )


def run_seed_sweep(
    seeds: Iterable[int],
    *,
    sites: int = 4,
    db_size: int = 32,
    txns: int = 60,
    plan: Optional[FaultPlan] = None,
    mutate: bool = False,
    jobs: Optional[int] = None,
) -> ChaosSweepReport:
    """Run :func:`run_chaos_seed` for every seed; aggregate the results.

    The seeds fan out across the worker pool, on every CPU unless ``jobs``
    says otherwise; ``jobs=1`` runs them in-process.  Each seed is a pure
    function of its arguments, so the report is the same either way —
    see :mod:`repro.perf.pool`.
    """
    seeds = list(seeds)
    if not seeds:
        # A sweep of no seed checks nothing; it must not report clean.
        raise ConfigurationError("no seeds to sweep")
    if plan is None:
        plan = FaultPlan()
    report = ChaosSweepReport(plan=plan, mutated=mutate)
    run = partial(
        run_chaos_seed, sites=sites, db_size=db_size, txns=txns, plan=plan, mutate=mutate
    )
    report.results.extend(run_chunked(run, seeds, jobs=jobs))
    return report
