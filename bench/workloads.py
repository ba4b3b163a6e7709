"""The six benchmark workloads.

Each workload calls one public entry point of the simulator with every
config field it depends on pinned explicitly, so a later default flip
cannot silently change what is measured.  ``build(seed)`` returns
``run(block)``; one call is one repetition and returns an
:class:`Outcome` — the units of work done, the harness-level failures, a
digest of every deterministic output, and the simulated (``model.*``)
statistics.  Each block has its own simulator seeds (``seed + block``,
or that many whole seed ranges further on), so a run of the benchmark
measures as many different inputs as it has repetitions: host cost per
unit of work differs by up to 20 % from one seed to the next, and the
median over blocks is what stays steady.

Sizes are fixed: a repetition is 0.4-1.4 s on the 2-cpu reference box,
so 9 to 30 fit in the benchmark's 12 s measuring window.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Callable

from repro.chaos.faults import FaultPlan
from repro.chaos.runner import run_seed_sweep
from repro.check.explorer import explore
from repro.check.runner import CheckConfig
from repro.recovery.experiment import run_recovery_matrix
from repro.soak import SoakConfig, build_report, run_soak
from repro.system.config import (
    ClearNoticeMode,
    CopyControlStrategy,
    FailureDetection,
    SystemConfig,
)
from repro.system.costs import CostModel
from repro.system.openloop import run_open_loop
from repro.core.recovery import RecoveryPolicy

# Simulated statistics, reported with the per-layer metrics under these
# names.  Exact per seed: a host-only change must leave all of them (and
# the digest) identical.
MODEL_METRICS = (
    ("model.sim_tps", "1/s", "higher"),
    ("model.abort_share", "ratio", "lower"),
    ("model.sim_commit_p50_ms", "ms", "lower"),
    ("model.sim_commit_p99_ms", "ms", "lower"),
    ("model.sim_dip_ms", "ms", "lower"),
    ("model.sim_recovery_ms", "ms", "lower"),
    ("model.sim_two_step_ms", "ms", "lower"),
    ("model.sim_parallel_ms", "ms", "lower"),
)


@dataclass(slots=True)
class Outcome:
    """What one repetition produced."""

    work: int                 # units of work attempted (see Workload.unit)
    digest: str               # blake2b of every deterministic output
    failed: int = 0           # units whose output check failed
    problems: list[str] = field(default_factory=list)
    model: dict[str, float] = field(default_factory=dict)
    facts: dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class Workload:
    name: str
    unit: str                 # what one unit of ``work_per_ref_s`` is
    loop: str                 # open or closed loop, with its rate
    why: str
    build: Callable[[int], Callable[[int], Outcome]]


def digest_of(payload: object) -> str:
    """Stable digest of JSON-able deterministic output."""
    raw = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(raw.encode(), digest_size=16).hexdigest()


# -- soak-failover / read-mostly ------------------------------------------


def _soak(seed: int, **mix) -> Callable[[int], Outcome]:
    def config(block: int) -> SoakConfig:
        return SoakConfig(
            seed=seed + block,
            rate_tps=25.0,
            shape="constant",
            peak_tps=None,
            period_ms=20_000.0,
            skew=0.8,
            storm_every_ms=10_000.0,
            num_sites=4,
            db_size=128,
            max_txn_size=5,
            cores=5,
            wire_latency_ms=9.0,
            detection="timeout",
            recovery_policy="on_demand",
            window_ms=1_000.0,
            max_windows=240,
            rel_err=0.01,
            exemplars=20,
            fail_site=2,
            fail_at_ms=None,
            recover_at_ms=None,
            **mix,
        )

    def run(block: int) -> Outcome:
        result = run_soak(config(block))  # raises on a stall or an inconsistent copy
        doc = build_report(result)
        totals, latency = doc["totals"], doc["latency_ms"]
        # A lost transaction (coordinator crashed) is settled as an abort.
        submitted = totals["txns"]
        dip = doc["availability"]["time_to_baseline_ms"]
        outcome = Outcome(
            work=submitted,
            digest=digest_of(doc),
            model={
                "model.sim_tps": result.throughput_tps,
                "model.abort_share": totals["aborts"] / submitted,
                "model.sim_commit_p50_ms": latency["p50"],
                "model.sim_commit_p99_ms": latency["p99"],
                "model.sim_dip_ms": dip if dip is not None else 0.0,
            },
            facts={
                "commits": totals["commits"],
                "aborts": totals["aborts"],
                "lost": totals["lost"],
                "events": totals["events_fired"],
                "p99_samples_beyond": latency["count"] // 100,
                "recovered_to_baseline": dip is not None,
            },
        )
        if submitted != result.config.txns:
            outcome.failed = abs(result.config.txns - submitted)
            outcome.problems.append(
                f"{submitted} outcomes for {result.config.txns} submitted transactions"
            )
        return outcome

    return run


def _soak_failover(seed: int) -> Callable[[int], Outcome]:
    return _soak(seed, txns=5_000, workload="zipf", read_fraction=0.7)


def _read_mostly(seed: int) -> Callable[[int], Outcome]:
    return _soak(seed, txns=10_000, workload="wisconsin", read_fraction=0.9)


# -- lock-storm -----------------------------------------------------------


def _lock_storm(seed: int, txn_count: int = 1_000) -> Callable[[int], Outcome]:
    def config(block: int) -> SystemConfig:
        return SystemConfig(
            db_size=50,
            num_sites=4,
            max_txn_size=10,
            write_probability=0.5,
            seed=seed + block,
            faillocks_enabled=True,
            detection=FailureDetection.ANNOUNCED,
            clear_notice_mode=ClearNoticeMode.SPECIAL_TXN,
            strategy=CopyControlStrategy.ROWAA,
            recovery_policy=RecoveryPolicy.ON_DEMAND,
            batch_threshold=0.2,
            batch_size=5,
            spread_copier_sources=False,
            recovery_fanout=0,
            concurrency_control=True,
            cold_recovery=False,
            costs=CostModel(),
            cores=1,
            wire_latency_ms=0.0,
            failure_detect_delay_ms=0.0,
            reliable_delivery=False,
            # Above capacity the detector misses some cycles (edges are not
            # refreshed when a lock changes hands) and about a quarter of
            # seeds would stall; the 2PC vote timeout aborts those few.
            timeouts_enabled=True,
            vote_timeout_ms=60_000.0,
            commit_retry_ms=60_000.0,
            commit_max_retries=10,
            status_inquiry_ms=120_000.0,
        )

    def run(block: int) -> Outcome:
        # raises on a stall or an inconsistent copy
        result = run_open_loop(
            config(block),
            workload=None,
            txn_count=txn_count,
            arrival_rate_tps=12.0,
            deadlock_retries=0,
            keep_records=False,
        )
        payload = {
            "commits": result.commits,
            "aborts": result.aborts,
            "deadlock_aborts": result.deadlock_aborts,
            "deadlocks_detected": result.deadlocks_detected,
            "elapsed_ms": result.elapsed_ms,
            "latency": asdict(result.latency),
            "lock_parks": result.lock_parks,
            "retries": result.retries,
            "events": result.events_fired,
        }
        outcome = Outcome(
            work=txn_count,
            digest=digest_of(payload),
            model={
                "model.sim_tps": result.throughput_tps,
                "model.abort_share": result.aborts / txn_count,
            },
            facts={
                "commits": result.commits,
                "aborts": result.aborts,
                "deadlock_aborts": result.deadlock_aborts,
                "events": result.events_fired,
            },
        )
        if result.commits + result.aborts != txn_count:
            outcome.failed = abs(txn_count - result.commits - result.aborts)
            outcome.problems.append("outcomes do not add up to the submitted count")
        return outcome

    return run


# -- chaos-sweep ----------------------------------------------------------

CHAOS_SEEDS = 10
CHAOS_TXNS = 80


def chaos_halves(seed: int, jobs: int | None = None) -> list:
    """The conservative and the lossy half of the sweep, same seeds."""
    seeds = range(seed, seed + CHAOS_SEEDS)
    return [
        run_seed_sweep(
            seeds, sites=4, db_size=32, txns=CHAOS_TXNS, plan=plan,
            mutate=False, jobs=jobs,
        )
        for plan in (FaultPlan(), FaultPlan.lossy())
    ]


def _chaos_sweep(seed: int) -> Callable[[int], Outcome]:
    def run(block: int) -> Outcome:
        reports = chaos_halves(seed + block * CHAOS_SEEDS)
        outcome = Outcome(work=0, digest="")
        payload = []
        commits = aborts = events = 0
        for report in reports:
            for result in report.results:
                outcome.work += result.txns
                commits += result.commits
                aborts += result.aborts
                events += result.events_fired
                if result.violations or result.stalled:
                    outcome.failed += result.txns
                    outcome.problems.append(
                        f"seed {result.seed}: {len(result.violations)} violations"
                        f"{', stalled' if result.stalled else ''}"
                    )
                payload.append(
                    {
                        "seed": result.seed,
                        "commits": result.commits,
                        "aborts": result.aborts,
                        "sim_time_ms": result.sim_time_ms,
                        "faults": asdict(result.fault_stats),
                        "schedule_actions": result.schedule_actions,
                        "checks": result.checks,
                        "violations": len(result.violations),
                        "stalled": result.stalled,
                        "net": asdict(result.net_stats) if result.net_stats else None,
                        "events": result.events_fired,
                        "recovery_periods": result.recovery_periods,
                        "interrupted": result.interrupted_recoveries,
                    }
                )
        outcome.digest = digest_of(payload)
        outcome.model = {"model.abort_share": aborts / outcome.work}
        outcome.facts = {
            "commits": commits,
            "aborts": aborts,
            "events": events,
            "checks": sum(r.total_checks for r in reports),
        }
        return outcome

    return run


# -- check-explore --------------------------------------------------------


def _check_explore(seed: int, max_runs: int = 100) -> Callable[[int], Outcome]:
    def config(block: int) -> CheckConfig:
        return CheckConfig(
            sites=4,
            db_size=8,
            txns=6,
            seed=seed + block,
            mutate=False,
            explore_order=True,
            explore_fates=True,
            explore_faults=True,
            recovery_policy="on_demand",
            max_branch=4,
            max_drops=2,
            max_crashes=2,
            max_recoveries=2,
            min_up=1,
        )

    def run(block: int) -> Outcome:
        result = explore(
            config(block), max_runs=max_runs, max_depth=80,
            stop_on_violation=False, sleep_sets=True,
        )
        stats = result.stats
        outcome = Outcome(
            work=stats.runs,
            digest=digest_of(
                {"stats": asdict(stats), "fingerprints": list(result.fingerprints)}
            ),
            facts=asdict(stats),
        )
        if stats.violations_found:
            outcome.failed = stats.violations_found
            outcome.problems.append(
                f"{stats.violations_found} violating schedules: {result.violation}"
            )
        return outcome

    return run


# -- recovery-fanout ------------------------------------------------------

def _recovery_fanout(seed: int) -> Callable[[int], Outcome]:
    def run(block: int) -> Outcome:
        # raises when a cell does not close its recovery period
        cells = run_recovery_matrix(
            donor_counts=(1, 2, 4, 6),
            stale_sizes=(256, 512),
            policies=("two_step", "parallel"),
            seed=seed + block,
            wire_latency_ms=9.0,
        )
        outcome = Outcome(
            work=sum(c.initial_stale for c in cells),
            digest=digest_of([asdict(c) for c in cells]),
        )
        for cell in cells:
            refreshed = cell.refreshed_by_write + cell.refreshed_by_copier
            # More is fine: a write can land on a copy a copier also refreshes.
            if refreshed < cell.initial_stale:
                outcome.failed += cell.initial_stale - refreshed
                outcome.problems.append(
                    f"{cell.policy}/{cell.donors}/{cell.stale_items}: refreshed "
                    f"{refreshed} of {cell.initial_stale} stale copies"
                )

        def pair(policy: str) -> float:
            return sum(
                c.recovery_ms for c in cells
                if (c.policy, c.donors, c.stale_items) == (policy, 4, 512)
            )

        outcome.model = {
            "model.sim_recovery_ms": sum(c.recovery_ms for c in cells),
            "model.sim_two_step_ms": pair("two_step"),
            "model.sim_parallel_ms": pair("parallel"),
        }
        outcome.facts = {
            "cells": len(cells),
            "copier_requests": sum(c.copier_requests for c in cells),
        }
        return outcome

    return run


WORKLOADS = (
    Workload(
        "soak-failover", "txn outcomes", "open loop, 25 tps",
        "Flagship user run: write-mixed Zipf 2PC traffic through one fail/recover "
        "cycle; net, site and sim do most of the work.",
        _soak_failover,
    ),
    Workload(
        "read-mostly", "txn outcomes", "open loop, 25 tps",
        "Same engine at 90% reads: ROWAA reads are local, so the participant and "
        "message path is bypassed; per-txn fixed cost dominates.",
        _read_mostly,
    ),
    Workload(
        "lock-storm", "txn outcomes", "open loop, 12 tps, above capacity",
        "Overloaded 1-core cluster: backlog and waits-for graph grow, so deadlock "
        "detection and lock tables take the largest share.",
        _lock_storm,
    ),
    Workload(
        "chaos-sweep", "txn outcomes", "closed loop, 1 client",
        "40 short audited clusters, half under silent message loss: cluster builds, "
        "interposer, auditor and the only run of net.reliable.",
        _chaos_sweep,
    ),
    Workload(
        "check-explore", "steered re-executions", "closed loop, 1 client",
        "Model-checker budget of 300 re-executions: cluster rebuilds, signature() "
        "and fingerprint hashing, check hooks.",
        _check_explore,
    ),
    Workload(
        "recovery-fanout", "stale copies refreshed", "closed loop, 1 client",
        "The paper's subject: 32 cold-crash recovery cells, two-step vs parallel; "
        "fail-locks and ROWAA planning dominate, no locks.",
        _recovery_fanout,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}
