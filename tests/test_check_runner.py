"""repro.check runner: choice points, decision vectors, determinism."""

import pytest

from repro.check import CheckConfig, run_schedule
from repro.errors import CheckError
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.system.scenario import RoundRobin, Scenario
from repro.workload.uniform import UniformWorkload


def _plain_run(config: CheckConfig):
    """The same system with no hooks installed at all."""
    sys_config = SystemConfig(
        db_size=config.db_size,
        num_sites=config.sites,
        seed=config.seed,
        wire_latency_ms=2.0,
    )
    cluster = Cluster(sys_config)
    scenario = Scenario(
        workload=UniformWorkload(sys_config.item_ids, sys_config.max_txn_size),
        txn_count=config.txns,
        policy=RoundRobin(),
    )
    cluster.run(scenario)
    return cluster


def test_empty_vector_is_the_unperturbed_run():
    # The identity everything else rests on: all hooks installed + the
    # empty decision vector == no hooks at all, event for event.
    config = CheckConfig()
    steered = run_schedule(config, [])
    plain = _plain_run(config)
    assert steered.events_fired == plain.scheduler.fired
    assert steered.commits == plain.metrics.counters.get("commits")
    assert steered.aborts == plain.metrics.counters.get("aborts")
    assert steered.sim_time_ms == plain.now
    assert not steered.violations
    # Choice points were consulted but all defaulted.
    assert steered.decisions
    assert all(d.chosen == 0 for d in steered.decisions)


def test_same_vector_same_run():
    # Bit-level determinism within one process: decisions (including the
    # state fingerprints at each choice point the caller asked for) and
    # outcomes are equal.  Models the explorer popping prefix [1, 0, 1]
    # at max_depth 40: it reads the fingerprints at indices [3, 40).
    config = CheckConfig()
    first = run_schedule(config, [1, 0, 1], fingerprint_at=range(3, 40))
    second = run_schedule(config, [1, 0, 1], fingerprint_at=range(3, 40))
    assert first.decisions == second.decisions
    assert [bool(d.fingerprint) for d in first.decisions[:4]] == [
        False, False, False, True,
    ]
    assert first.events_fired == second.events_fired
    assert first.commits == second.commits
    assert first.sim_time_ms == second.sim_time_ms


def test_stale_advice_degrades_to_defaults():
    # Vectors are advice: entries out of range for a point's arity and
    # entries past the run's last choice point become alternative 0, so
    # ANY integer vector is a well-defined run.
    config = CheckConfig()
    baseline = run_schedule(config, [])
    absurd = run_schedule(config, [99, -3, 0, 0, 0, 0, 0, 0, 0, 0, 7, 12])
    assert absurd.events_fired == baseline.events_fired
    assert absurd.chosen == []  # everything executed as default


def test_steering_changes_the_schedule():
    config = CheckConfig()
    baseline = run_schedule(config, [])
    deviated = run_schedule(config, [1])
    assert deviated.decisions[0].chosen == 1
    assert deviated.chosen == [1]
    # A fault choice at the first boundary genuinely perturbs the run.
    assert deviated.events_fired != baseline.events_fired


def test_choice_points_record_kind_arity_and_labels():
    # Models the explorer's root run: empty prefix, so the fingerprint
    # window opens at choice point 0 and every decision carries one.
    result = run_schedule(CheckConfig(), [], fingerprint_at=range(0, 40))
    assert len(result.decisions) <= 40
    kinds = {d.kind for d in result.decisions}
    assert kinds <= {"order", "fate", "fault"}
    assert "fault" in kinds  # explore_faults default on
    for decision in result.decisions:
        assert decision.arity >= 2  # degenerate points are never recorded
        assert len(decision.labels) == decision.arity
        assert decision.fingerprint  # state hash attached
    fault = next(d for d in result.decisions if d.kind == "fault")
    assert fault.labels[0].endswith("no fault")
    assert "crash site" in fault.labels[1]


def test_fault_budget_and_min_up_respected():
    # max_crashes=1: after one crash no further crash options appear, and
    # with min_up=2 of 3 sites no second site may go down anyway.
    config = CheckConfig(min_up=2, max_recoveries=0, txns=4)
    result = run_schedule(config, [1, 1, 1, 1, 1, 1])
    crash_choices = [
        d for d in result.decisions if d.kind == "fault" and d.chosen != 0
    ]
    assert len(crash_choices) == 1


def test_mutation_plus_crash_violates_faillock_coverage():
    dirty = run_schedule(CheckConfig(mutate=True), [1])
    assert dirty.violations
    assert dirty.violations[0].invariant == "faillock-coverage"
    # The same schedule against the CORRECT protocol is clean: the
    # violation is the mutation's, not the checker's.
    clean = run_schedule(CheckConfig(), [1])
    assert not clean.violations


def test_fate_choices_offer_droppable_messages():
    # Fates only appear for conservatively-droppable message types, and
    # chosen drops stay within max_drops.
    config = CheckConfig(explore_fates=True, max_drops=1, txns=4)
    result = run_schedule(config, [1])  # crash -> ABORT/CLEAR traffic
    fates = [d for d in result.decisions if d.kind == "fate"]
    for decision in fates:
        assert decision.arity == 2
        assert decision.labels[0].startswith("deliver ")
        assert decision.labels[1].startswith("drop ")


def test_tracing_does_not_perturb_decisions():
    from repro.obs.sink import TraceSink

    config = CheckConfig(mutate=True)
    untraced = run_schedule(config, [1])
    traced = run_schedule(config, [1], trace=TraceSink(enabled=True))
    assert traced.decisions == untraced.decisions
    assert traced.events_fired == untraced.events_fired


def test_signatures_are_hashable_and_time_free():
    config = CheckConfig()
    sys_config = SystemConfig(
        db_size=config.db_size,
        num_sites=config.sites,
        seed=config.seed,
        wire_latency_ms=2.0,
    )
    cluster = Cluster(sys_config)
    scenario = Scenario(
        workload=UniformWorkload(sys_config.item_ids, sys_config.max_txn_size),
        txn_count=2,
        policy=RoundRobin(),
    )
    cluster.run(scenario)
    for site in cluster.sites:
        signature = site.signature()
        hash(signature)  # must be hashable all the way down
        # No floats anywhere: times are exactly what signatures exclude.
        def flat(value):
            if isinstance(value, tuple):
                for inner in value:
                    yield from flat(inner)
            else:
                yield value
        assert not any(isinstance(v, float) for v in flat(signature))
    hash(cluster.manager.signature())


def test_check_config_roundtrips_through_dict():
    config = CheckConfig(sites=4, mutate=True, explore_fates=True, max_drops=2)
    assert CheckConfig.from_dict(config.to_dict()) == config
    # Unknown keys (schema evolution) are ignored, not fatal.
    data = config.to_dict()
    data["future_field"] = 1
    assert CheckConfig.from_dict(data) == config


def test_shrink_rejects_clean_schedule():
    from repro.check import shrink

    with pytest.raises(CheckError):
        shrink(CheckConfig(), [])
