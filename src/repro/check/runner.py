"""One steered simulation run — the checker's unit of work.

:func:`run_schedule` builds a fresh conservative-mode cluster, installs
the choice hooks selected by :class:`CheckConfig`, threads a decision
vector through it, and audits the run with the same
:class:`~repro.chaos.invariants.InvariantAuditor` the chaos sweeps use.
The run is a pure function of (config, vector): same inputs, same
decisions, same violations, same event count — in this process or any
other.

Conservative mode deliberately: no retransmission sublayer, no 2PC
timeouts, round-robin submission (deterministic and crash-tolerant — a
fixed-site policy would fault when a choice crashes its site), and
drops restricted to the message types whose loss the bare protocol is
specified to survive.  The checker's subject is the *protocol*, not the
recovery machinery layered around it.

``mutate=True`` re-introduces the PR-1 protocol mutation
(:func:`repro.chaos.runner.neuter_faillocks` — fail-lock *setting*
disabled while clearing still works), which is how the self-test proves
the explorer finds real bugs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Any, Optional, Sequence, TYPE_CHECKING

from repro.chaos.invariants import InvariantAuditor
from repro.chaos.runner import neuter_faillocks
from repro.check.choices import ChoiceController, Decision
from repro.check.fingerprint import cluster_fingerprint
from repro.check.hooks import FateChoiceHook, FaultChoiceHook, OrderChoiceHook
from repro.core.recovery import RecoveryPolicy
from repro.errors import CheckError, SimulationError
from repro.metrics.records import ViolationRecord
from repro.obs import schema
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.system.scenario import RoundRobin, Scenario
from repro.workload.uniform import UniformWorkload

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.obs.sink import TraceSink

__all__ = ["CheckConfig", "CheckRunResult", "run_schedule"]


@dataclass(slots=True)
class CheckConfig:
    """The explored system's shape plus per-run choice budgets.

    Everything here is part of the schedule file: a (config, decision
    vector) pair fully determines a run.
    """

    sites: int = 3
    db_size: int = 8
    txns: int = 3
    seed: int = 42
    mutate: bool = False
    # Which nondeterminism to expose as choice points.
    explore_order: bool = True
    explore_fates: bool = False
    explore_faults: bool = True
    # Recovery policy for explored clusters (on_demand | two_step |
    # parallel).  The default keeps every pre-existing schedule file —
    # and the explorer's default search — byte-identical; "parallel"
    # points the search at the fan-out recovery engine.
    recovery_policy: str = "on_demand"
    # Per-choice-point and per-run budgets.
    max_branch: int = 3
    max_drops: int = 1
    max_crashes: int = 1
    max_recoveries: int = 1
    min_up: int = 1

    def __post_init__(self) -> None:
        # A run without a transaction checks nothing, a choice point with
        # fewer than two alternatives is no choice, and a search that may
        # crash every site has nobody left to drive; each is refused rather
        # than run or quietly raised.
        if self.txns < 1:
            raise CheckError(f"txns must be >= 1: {self.txns}")
        if self.max_branch < 2:
            raise CheckError(
                f"max_branch must be >= 2 (alternatives offered per choice "
                f"point): {self.max_branch}"
            )
        if self.min_up < 1:
            raise CheckError(
                f"min_up must be >= 1 (sites never crashed below): {self.min_up}"
            )

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CheckConfig":
        """Build from a schedule file's ``config`` object.

        Absent fields take their defaults and unknown keys are ignored (so
        old and new schedule files both load); a field of the wrong JSON
        type is a :class:`~repro.errors.CheckError`.
        """
        problems = schema.check(data, CONFIG_SPEC, "config")
        if problems:
            raise CheckError("; ".join(problems))
        return cls(**{k: data[k] for k in cls.__dataclass_fields__ if k in data})


# Every field optional, typed as the dataclass declares it.
CONFIG_SPEC = {
    f"{f.name}?": {"int": int, "bool": bool, "str": str}[f.type]
    for f in fields(CheckConfig)
}


@dataclass(slots=True)
class CheckRunResult:
    """Everything one steered run produced."""

    decisions: list[Decision] = field(default_factory=list)
    violations: list[ViolationRecord] = field(default_factory=list)
    commits: int = 0
    aborts: int = 0
    stalled: bool = False
    events_fired: int = 0
    sim_time_ms: float = 0.0

    @property
    def chosen(self) -> list[int]:
        """The executed decision vector in canonical form.

        Trailing defaults are truncated: they steer nothing, and the
        canonical form makes equal schedules compare equal as lists.
        """
        vector = [d.chosen for d in self.decisions]
        while vector and vector[-1] == 0:
            vector.pop()
        return vector


def run_schedule(
    config: CheckConfig,
    advice: Sequence[int] = (),
    trace: Optional["TraceSink"] = None,
    *,
    fingerprint_at: range = range(0),
) -> CheckRunResult:
    """Execute one run of ``config`` steered by ``advice``.

    ``advice`` past the run's actual choice points — or stale entries out
    of range for a point's arity — silently become defaults, so *any*
    integer vector is a well-defined run (the property delta-debugging
    relies on).  Pass an enabled :class:`~repro.obs.sink.TraceSink` to
    capture the run for export; tracing is pure observation.

    ``fingerprint_at`` is the half-open window of choice-point indices
    whose :class:`Decision` gets a state fingerprint; a decision carries
    one iff its index is in it.  Fingerprinting never steers the run, so
    the window changes nothing else in the result.  Only the explorer
    reads fingerprints and only it passes a window; shrink, replay,
    export and the self-test take none.
    """
    sys_config = SystemConfig(
        db_size=config.db_size,
        num_sites=config.sites,
        seed=config.seed,
        wire_latency_ms=2.0,
        recovery_policy=RecoveryPolicy(config.recovery_policy),
    )
    cluster = Cluster(sys_config)
    # Arm the signature memo cluster_fingerprint keeps; it dies with the
    # cluster at the end of this run.
    cluster.network.endpoint_memo = {}
    if trace is not None:
        cluster.network.obs = trace
    if config.mutate:
        neuter_faillocks(cluster)

    controller = ChoiceController(
        advice,
        state_fn=lambda: cluster_fingerprint(cluster),
        fingerprint_at=fingerprint_at,
    )
    if config.explore_order:
        cluster.scheduler.tie_breaker = OrderChoiceHook(
            controller, max_branch=config.max_branch
        )
    if config.explore_fates:
        cluster.network.interposer = FateChoiceHook(
            controller, max_drops=config.max_drops
        )

    auditor = InvariantAuditor(cluster)
    cluster.install_probe(auditor)

    scenario = Scenario(
        workload=UniformWorkload(sys_config.item_ids, sys_config.max_txn_size),
        txn_count=config.txns,
        policy=RoundRobin(),
    )
    if config.explore_faults:
        scenario.actions = FaultChoiceHook(  # type: ignore[assignment]
            controller,
            sys_config.site_ids,
            max_crashes=config.max_crashes,
            max_recoveries=config.max_recoveries,
            min_up=config.min_up,
            max_branch=config.max_branch,
        )

    stalled = False
    try:
        try:
            cluster.run(scenario)
        except SimulationError:
            # The drive loop stalled: under steered faults that is a liveness
            # finding for the auditor, not a tooling crash.
            stalled = True
            auditor.note_stall()
        auditor.check_quiescence()

        return CheckRunResult(
            decisions=list(controller.trace),
            violations=list(auditor.violations),
            commits=cluster.metrics.counters.get("commits"),
            aborts=cluster.metrics.counters.get("aborts"),
            stalled=stalled,
            events_fired=cluster.scheduler.fired,
            sim_time_ms=cluster.now,
        )
    finally:
        # The scheduler's tie-breaker, the interposer and the scenario's
        # fault hook all reach the cluster through the controller.
        controller.state_fn = None
        auditor.cluster = None
        cluster.close()
