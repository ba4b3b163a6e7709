"""repro.chaos: fault injection, invariant auditing, seed sweeps."""

import pytest

from repro.chaos import (
    DROPPABLE,
    DUPLICABLE,
    FaultInjector,
    FaultPlan,
    InvariantAuditor,
    build_chaos_scenario,
    format_sweep_report,
    neuter_faillocks,
    run_chaos_seed,
    run_seed_sweep,
)
from repro.cli import main
from repro.errors import ConfigurationError, FailLockError
from repro.net.message import Message, MessageType
from repro.sim.rng import DeterministicRng
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.system.scenario import FailSite, PartitionNetwork, RecoverSite


# -- fault plan ---------------------------------------------------------------


def test_fault_plan_validates_rates() -> None:
    with pytest.raises(ConfigurationError):
        FaultPlan(drop_rate=1.5).validate()
    with pytest.raises(ConfigurationError):
        FaultPlan(delay_max_ms=-1.0).validate()
    with pytest.raises(ConfigurationError):
        FaultPlan(min_up_sites=0).validate()
    FaultPlan().validate()  # defaults are valid


def test_droppable_excludes_two_phase_commit_traffic() -> None:
    """Dropping 2PC traffic would plant false failure suspicions of live
    sites (fail-stop violation); the plan must never allow it."""
    for mtype in (
        MessageType.VOTE_REQ,
        MessageType.COMMIT,
        MessageType.COPY_REQ,
        MessageType.FAILURE_ANNOUNCE,
        MessageType.VOTE_ACK,
        MessageType.COMMIT_ACK,
        MessageType.MGR_SUBMIT_TXN,
    ):
        assert mtype not in DROPPABLE
    assert MessageType.ABORT in DROPPABLE
    assert MessageType.CLEAR_FAILLOCKS in DROPPABLE
    # Everything duplicable is receiver-idempotent; acks are not in it.
    assert MessageType.VOTE_ACK not in DUPLICABLE
    assert MessageType.COMMIT in DUPLICABLE


def test_injector_only_faults_eligible_types() -> None:
    plan = FaultPlan(drop_rate=1.0, duplicate_rate=1.0, delay_rate=0.0)
    injector = FaultInjector(plan, DeterministicRng(7).stream("t"))
    vote_ack = Message(src=0, dst=1, mtype=MessageType.VOTE_ACK)
    fate = injector.intercept(vote_ack)
    assert fate is None  # not droppable, not duplicable, no delay roll
    abort = Message(src=0, dst=1, mtype=MessageType.ABORT)
    fate = injector.intercept(abort)
    assert fate is not None and fate.drop
    assert injector.stats.dropped == 1


# -- schedule generation ------------------------------------------------------


def test_schedule_is_deterministic_per_seed() -> None:
    config = SystemConfig(db_size=8, num_sites=4, seed=5)
    plan = FaultPlan()
    a = build_chaos_scenario(config, plan, DeterministicRng(5).stream("s"), 40)
    b = build_chaos_scenario(config, plan, DeterministicRng(5).stream("s"), 40)
    assert {k: [repr(x) for x in v] for k, v in a.actions.items()} == {
        k: [repr(x) for x in v] for k, v in b.actions.items()
    }


def test_schedule_forces_a_crash_and_respects_validity() -> None:
    config = SystemConfig(db_size=8, num_sites=4, seed=5)
    plan = FaultPlan()
    for seed in range(10):
        scenario = build_chaos_scenario(
            config, plan, DeterministicRng(seed).stream("s"), 50
        )
        up = set(config.site_ids)
        crashes = 0
        for seq in sorted(scenario.actions):
            for action in scenario.actions[seq]:
                if isinstance(action, FailSite):
                    assert action.site_id in up, "failed a down site"
                    up.discard(action.site_id)
                    crashes += 1
                    assert len(up) >= plan.min_up_sites
                elif isinstance(action, RecoverSite):
                    assert action.site_id not in up, "recovered an up site"
                    up.add(action.site_id)
        assert crashes >= 1, f"seed {seed}: force_crash produced no crash"


def test_schedule_partitions_only_when_enabled() -> None:
    config = SystemConfig(db_size=8, num_sites=4, seed=5)
    quiet = build_chaos_scenario(
        config, FaultPlan(), DeterministicRng(3).stream("s"), 200
    )
    assert not any(
        isinstance(a, PartitionNetwork)
        for actions in quiet.actions.values()
        for a in actions
    )
    noisy_plan = FaultPlan(partition_rate=0.4)
    noisy = build_chaos_scenario(
        config, noisy_plan, DeterministicRng(3).stream("s"), 200
    )
    assert any(
        isinstance(a, PartitionNetwork)
        for actions in noisy.actions.values()
        for a in actions
    )


# -- auditor hooks (synthetic events) -----------------------------------------


def _bare_cluster() -> Cluster:
    return Cluster(SystemConfig(db_size=4, num_sites=2, seed=1))


def test_auditor_flags_session_regression_per_channel() -> None:
    auditor = InvariantAuditor(_bare_cluster())
    auditor.on_message(Message(src=0, dst=1, mtype=MessageType.COMMIT, session=3))
    auditor.on_message(Message(src=0, dst=1, mtype=MessageType.COMMIT, session=2))
    assert [v.invariant for v in auditor.violations] == ["session-monotonicity"]


def test_auditor_allows_cross_channel_interleaving() -> None:
    """Only per-channel order is guaranteed; a lower session on another
    channel is legitimate interleaving, not a violation."""
    auditor = InvariantAuditor(_bare_cluster())
    auditor.on_message(Message(src=0, dst=1, mtype=MessageType.COMMIT, session=3))
    auditor.on_message(Message(src=0, dst=2, mtype=MessageType.COMMIT, session=1))
    auditor.on_message(Message(src=1, dst=0, mtype=MessageType.COMMIT, session=1))
    assert auditor.violations == []


def test_auditor_flags_commit_after_abort() -> None:
    cluster = _bare_cluster()
    auditor = InvariantAuditor(cluster)
    auditor.on_coordinator_abort(0, txn_id=9, reason="vote_nack")
    auditor.on_commit_applied(cluster.site(1), 9, [0], {0: [0, 1]})
    assert any(v.invariant == "atomicity" for v in auditor.violations)


def test_auditor_flags_missing_faillock_coverage() -> None:
    cluster = _bare_cluster()
    auditor = InvariantAuditor(cluster)
    # Item 0 written past site 1 (not a recipient), but nobody locked it.
    cluster.site(0).faillocks.clear_lock(0, 1)
    auditor.on_commit_applied(cluster.site(0), 3, [0], {0: [0]})
    assert any(v.invariant == "faillock-coverage" for v in auditor.violations)
    # Same event with the lock set is clean.
    clean = InvariantAuditor(cluster)
    cluster.site(0).faillocks.set_lock(0, 1)
    clean.on_commit_applied(cluster.site(0), 4, [0], {0: [0]})
    assert clean.violations == []


def test_auditor_quiescence_flags_unlocked_stale_copy() -> None:
    cluster = _bare_cluster()
    auditor = InvariantAuditor(cluster)
    cluster.site(0).db.apply_writes(1, [(0, 777, 5)], 0.0)  # site 1 stays at v0
    findings = auditor.check_quiescence()
    assert any(
        v.invariant == "convergence" and v.site_id == 1 for v in findings
    )
    # Fail-locking the stale copy makes the same state consistent.
    cluster.site(0).faillocks.set_lock(0, 1)
    clean = InvariantAuditor(cluster)
    assert clean.check_quiescence() == []


def test_auditor_flags_unfinished_transactions() -> None:
    """Liveness: a submitted transaction with no DONE by quiescence."""
    auditor = InvariantAuditor(_bare_cluster())
    auditor.on_message(
        Message(src=2, dst=0, mtype=MessageType.MGR_SUBMIT_TXN, txn_id=5)
    )
    findings = auditor.check_quiescence()
    assert any(v.invariant == "liveness" for v in findings)
    # Completing it clears the finding.
    clean = InvariantAuditor(_bare_cluster())
    clean.on_message(
        Message(src=2, dst=0, mtype=MessageType.MGR_SUBMIT_TXN, txn_id=5)
    )
    clean.on_message(
        Message(src=0, dst=2, mtype=MessageType.MGR_TXN_DONE, txn_id=5)
    )
    assert not any(v.invariant == "liveness" for v in clean.check_quiescence())


def test_auditor_note_stall_flags_liveness() -> None:
    auditor = InvariantAuditor(_bare_cluster())
    auditor.note_stall()
    assert [v.invariant for v in auditor.violations] == ["liveness"]


def test_violations_recorded_in_cluster_metrics() -> None:
    cluster = _bare_cluster()
    auditor = InvariantAuditor(cluster)
    auditor.on_message(Message(src=0, dst=1, mtype=MessageType.COMMIT, session=3))
    auditor.on_message(Message(src=0, dst=1, mtype=MessageType.COMMIT, session=1))
    assert cluster.metrics.counters["violations"] == 1
    assert cluster.metrics.counters["violation_session-monotonicity"] == 1
    assert len(cluster.metrics.violations) == 1


# -- end-to-end runs ----------------------------------------------------------


def test_clean_protocol_has_zero_violations() -> None:
    result = run_chaos_seed(42, txns=40)
    assert result.violations == []
    assert result.commits > 0
    assert result.checks > 100
    assert result.fault_stats.total > 0, "chaos injected nothing"
    assert result.schedule_actions >= 1


def test_mutation_mode_is_detected() -> None:
    """The built-in mutation (fail-lock setting disabled) must be caught —
    otherwise the auditor is vacuous."""
    result = run_chaos_seed(42, txns=40, mutate=True)
    assert result.mutated
    assert len(result.violations) >= 1
    kinds = {v.invariant for v in result.violations}
    assert "faillock-coverage" in kinds


def test_neutered_table_never_sets_locks() -> None:
    cluster = _bare_cluster()
    neuter_faillocks(cluster)
    table = cluster.site(0).faillocks
    table.set_lock(0, 1)
    assert not table.is_locked(0, 1)
    table.set_locks([0, 1, 1], 1)  # the bulk setter is neutered too
    assert table.total_locks() == 0
    with pytest.raises(FailLockError):
        table.set_locks([0, 99], 1)  # validation is kept
    table.update_with_recipients({0: [0]})
    assert not table.is_locked(0, 1)  # non-recipient NOT locked (the bug)


def test_mutation_mode_flags_exactly_the_expected_invariants() -> None:
    """Mutation at seed 3 is caught by the two invariants a missing lock
    breaks — and by nothing else (no crash, no unrelated violation)."""
    result = run_chaos_seed(3, mutate=True)
    assert {v.invariant for v in result.violations} == {
        "convergence",
        "faillock-coverage",
    }


def test_sweep_replays_byte_identically() -> None:
    seeds = range(42, 45)
    first = format_sweep_report(run_seed_sweep(seeds, txns=30))
    second = format_sweep_report(run_seed_sweep(seeds, txns=30))
    assert first == second
    assert "no invariant violations." in first


def test_violation_fingerprint_is_stable_and_empty_when_clean() -> None:
    clean = run_chaos_seed(43, txns=30)
    assert clean.violation_fingerprint() == ""
    first = run_chaos_seed(42, txns=30, mutate=True)
    second = run_chaos_seed(42, txns=30, mutate=True)
    assert not first.clean
    assert first.violation_fingerprint() == second.violation_fingerprint()
    assert len(first.violation_fingerprint()) == 16  # blake2b-8 hex


def test_report_dedupes_repeated_violating_schedules() -> None:
    # The same seed run twice under mutation yields the same violating
    # schedule; the report prints it once and back-references the repeat.
    report = run_seed_sweep([42, 42, 43], txns=30, mutate=True)
    text = format_sweep_report(report)
    fingerprint = report.results[0].violation_fingerprint()
    assert f"seed 42: [sig {fingerprint}]" in text
    assert f"seed 42: same as seed 42 [sig {fingerprint}]" in text
    assert "duplicate seed(s) collapsed" in text
    # The full violation records appear once, not twice.
    sample = report.results[0].violations[0].format()
    assert text.count(sample) == 1
    # A different violating schedule keeps its own full listing.
    other = report.results[2].violation_fingerprint()
    assert other != fingerprint
    assert f"seed 43: [sig {other}]" in text


def test_sweep_aggregates() -> None:
    report = run_seed_sweep(range(42, 44), txns=30)
    assert [r.seed for r in report.results] == [42, 43]
    assert report.total_checks > 0
    assert report.dirty_seeds == []


def test_tier1_invariant_matches_cluster_audit() -> None:
    """The chaos auditor and the cluster's own consistency audit agree on a
    clean run."""
    result = run_chaos_seed(43, txns=30)
    assert result.violations == []


# -- lossy-core mode ----------------------------------------------------------


def test_lossy_core_survives_the_full_fault_model() -> None:
    """Silent drops/dups/delays/reorder of ANY message type: the
    retransmission + timeout layers must keep every invariant (liveness
    included) intact."""
    result = run_chaos_seed(42, txns=30, plan=FaultPlan.lossy())
    assert result.violations == []
    assert not result.stalled
    assert result.commits > 0
    assert result.net_stats is not None
    assert result.net_stats.retransmissions > 0  # losses actually recovered
    assert result.net_stats.duplicates_suppressed > 0
    assert result.fault_stats.reordered > 0


@pytest.mark.parametrize(
    "seed",
    [455410715, 455409212, 455411281, 455411646, 455412862,
     1000898, 1002073, 1004057],
)
def test_lossy_seeds_that_wedged_a_channel_behind_a_dead_sender(seed) -> None:
    """All eight dirty seeds of a 13,000-seed lossy sweep at the bench
    shape, one root cause: a sender crashed with a transmission unacked,
    its slot was never skipped, and after recovery the channel acked
    everything and delivered nothing (docs/PROTOCOL.md, fault model)."""
    result = run_chaos_seed(
        seed, sites=4, db_size=32, txns=80, plan=FaultPlan.lossy()
    )
    assert result.violations == []
    assert not result.stalled
    assert result.commits + result.aborts == 80


def test_lossy_core_report_adds_transport_summary() -> None:
    report = run_seed_sweep(range(42, 44), txns=25, plan=FaultPlan.lossy())
    assert report.stalled_seeds == []
    text = format_sweep_report(report)
    assert "mode=lossy-core" in text
    assert "transport:" in text
    # Conservative-mode reports must NOT grow the new line.
    plain = format_sweep_report(run_seed_sweep(range(42, 43), txns=25))
    assert "transport:" not in plain and "mode=lossy-core" not in plain


# -- CLI ----------------------------------------------------------------------


def test_cli_chaos_lossy_mode_exits_zero(capsys) -> None:
    code = main(["chaos", "--mode", "lossy-core", "--seeds", "2", "--txns", "20"])
    out = capsys.readouterr().out
    assert code == 0
    assert "mode=lossy-core" in out
    assert "transport:" in out
    assert "no invariant violations." in out


def test_a_sweep_of_no_seed_is_refused(capsys) -> None:
    """``--seeds 0`` used to print ``0 checks, 0 violations`` and exit 0."""
    assert main(["chaos", "--seeds", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: no seeds to sweep\n"
    assert "no invariant violations" not in captured.out
    with pytest.raises(ConfigurationError, match="no seeds"):
        run_seed_sweep(range(7, 7))


def test_cli_chaos_clean_exits_zero(capsys) -> None:
    code = main(["chaos", "--seeds", "2", "--txns", "25"])
    out = capsys.readouterr().out
    assert code == 0
    assert "chaos sweep report" in out
    assert "no invariant violations." in out


def test_cli_chaos_mutate_exits_zero_on_detection(capsys) -> None:
    code = main(["chaos", "--seeds", "1", "--txns", "25", "--mutate"])
    out = capsys.readouterr().out
    assert code == 0  # detection succeeded
    assert "faillock-coverage" in out


def test_cli_chaos_writes_report_file(tmp_path, capsys) -> None:
    target = tmp_path / "chaos.txt"
    code = main(
        ["chaos", "--seeds", "1", "--txns", "25", "--output", str(target)]
    )
    assert code == 0
    assert "chaos sweep report" in target.read_text(encoding="utf-8")
