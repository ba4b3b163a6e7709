"""Cluster integration: ROWA / quorum baselines and detection modes."""

import functools

import pytest

import repro.chaos.runner
from repro.chaos import FaultPlan, run_chaos_seed
from repro.errors import ConfigurationError
from repro.storage.catalog import ReplicationCatalog
from repro.system.cluster import Cluster
from repro.system.config import CopyControlStrategy, FailureDetection, SystemConfig
from repro.system.scenario import FailSite, FixedSite, RecoverSite, Scenario
from repro.txn.operations import OpKind, Operation
from repro.workload.base import WorkloadGenerator

from conftest import make_scenario, run_cluster


class OneOp(WorkloadGenerator):
    """Every transaction is the same single operation."""

    def __init__(self, op: Operation):
        self.op = op

    def generate(self, txn_seq, rng):
        return [self.op]


def config_with(strategy, **kw):
    return SystemConfig(
        db_size=10, num_sites=4, max_txn_size=4, seed=3, strategy=strategy, **kw
    )


# -- strict ROWA --------------------------------------------------------------------


def test_rowa_commits_when_all_up():
    config = config_with(CopyControlStrategy.ROWA)
    cluster = run_cluster(config, make_scenario(config, 20))
    assert cluster.metrics.counters["commits"] == 20


def test_rowa_blocks_writes_during_failure():
    config = config_with(CopyControlStrategy.ROWA)
    scenario = Scenario(
        workload=OneOp(Operation(OpKind.WRITE, 1)), txn_count=10
    )
    scenario.add_action(1, FailSite(3))
    scenario.add_action(6, RecoverSite(3))
    cluster = run_cluster(config, scenario)
    metrics = cluster.metrics
    assert metrics.counters["aborts"] == 5
    assert all(
        t.abort_reason.value == "write_all_blocked" for t in metrics.aborted
    )
    assert metrics.counters["commits"] == 5


def test_rowa_reads_survive_failure():
    config = config_with(CopyControlStrategy.ROWA)
    scenario = Scenario(workload=OneOp(Operation(OpKind.READ, 1)), txn_count=10)
    scenario.add_action(1, FailSite(3))
    cluster = run_cluster(config, scenario)
    assert cluster.metrics.counters["commits"] == 10


# -- quorum consensus ------------------------------------------------------------------


def test_quorum_commits_with_majority():
    config = config_with(CopyControlStrategy.QUORUM)
    scenario = make_scenario(config, 20)
    scenario.add_action(1, FailSite(3))   # 3 of 4 up: majority holds
    cluster = run_cluster(config, scenario)
    assert cluster.metrics.counters["aborts"] == 0


def test_quorum_aborts_below_majority():
    config = config_with(CopyControlStrategy.QUORUM)
    scenario = make_scenario(config, 10)
    scenario.add_action(1, FailSite(2))
    scenario.add_action(1, FailSite(3))   # 2 of 4: below majority (3)
    cluster = run_cluster(config, scenario)
    metrics = cluster.metrics
    assert metrics.counters["commits"] == 0
    assert all(
        t.abort_reason.value == "quorum_unavailable" for t in metrics.aborted
    )


def test_quorum_reads_resolve_newest_version():
    """A recovered site's stale copy is overridden by peer versions."""
    config = SystemConfig(
        db_size=4, num_sites=3, max_txn_size=2, seed=3,
        strategy=CopyControlStrategy.QUORUM,
    )

    class Script(WorkloadGenerator):
        def generate(self, txn_seq, rng):
            if txn_seq == 2:
                return [Operation(OpKind.WRITE, 1)]
            return [Operation(OpKind.READ, 1)]

    class Policy:
        def choose(self, seq, up_sites, rng):
            return 2 if seq >= 4 and 2 in up_sites else up_sites[0]

    scenario = Scenario(workload=Script(), txn_count=4, policy=Policy())
    scenario.add_action(1, FailSite(2))      # site 2 misses the write
    scenario.add_action(4, RecoverSite(2))   # comes back with a stale copy
    cluster = Cluster(config)
    metrics = cluster.run(scenario)
    assert metrics.counters["commits"] == 4
    # Under quorum there are no fail-locks/copiers; the read at site 2 must
    # still have returned the newest value, learned from the vote answers.
    from repro.site.coordinator import write_value

    txn4 = [t for t in metrics.txns if t.seq == 4][0]
    assert txn4.committed
    # The coordinator's merged read is not directly recorded; verify via
    # the participant-version mechanism: site 2's local copy was stale.
    assert cluster.site(2).db.version(1) == 0
    # ... and the up-to-date sites have the write.
    assert cluster.site(0).db.version(1) == 1


def test_quorum_over_a_partial_catalog_is_rejected():
    """Version votes count sites, not copies: with items 0-2 on site 0 only,
    a majority of sites is no quorum of their copies (and a voter would
    report versions of items it does not hold)."""
    catalog = ReplicationCatalog(range(6), range(3))
    for item in range(3):
        catalog.add_copy(item, 0)
    for item in range(3, 6):
        for site in range(3):
            catalog.add_copy(item, site)
    config = SystemConfig(
        db_size=6, num_sites=3, max_txn_size=3, seed=1,
        strategy=CopyControlStrategy.QUORUM,
    )
    with pytest.raises(ConfigurationError, match="strategy=quorum.*catalog"):
        Cluster(config, catalog=catalog)


# -- the strategies under the auditor -----------------------------------------------


@pytest.fixture(
    params=[CopyControlStrategy.ROWA, CopyControlStrategy.QUORUM],
    ids=lambda s: s.value,
)
def chaos_strategy(request, monkeypatch):
    """Every chaos cluster built in the test runs ``request.param``."""
    monkeypatch.setattr(
        repro.chaos.runner,
        "SystemConfig",
        functools.partial(SystemConfig, strategy=request.param),
    )
    return request.param


def assert_clean(plan: FaultPlan, seeds: range, txns: int) -> None:
    for seed in seeds:
        result = run_chaos_seed(seed, txns=txns, plan=plan)
        assert result.clean and not result.stalled, (seed, result.violations)


@pytest.mark.parametrize(
    "plan",
    [FaultPlan(), FaultPlan.lossy(), FaultPlan.correlated(),
     FaultPlan.flapping(), FaultPlan.partition_recovery()],
    ids=["default", "lossy", "correlated", "flapping", "partition_recovery"],
)
def test_strategy_survives_randomized_faults(chaos_strategy, plan):
    assert_clean(plan, range(10), txns=40)


@pytest.mark.slow
@pytest.mark.parametrize(
    "plan, seeds, txns",
    [
        (FaultPlan(), 150, 60),
        (FaultPlan.lossy(), 150, 60),
        (FaultPlan.correlated(), 60, 40),
        (FaultPlan.flapping(), 60, 40),
        (FaultPlan.partition_recovery(), 60, 40),
        (FaultPlan.aggressive(), 60, 40),
    ],
    ids=["default", "lossy", "correlated", "flapping", "partition_recovery",
         "aggressive"],
)
def test_strategy_survives_the_wider_sweep(chaos_strategy, plan, seeds, txns):
    assert_clean(plan, range(seeds), txns=txns)


def test_the_planted_mutation_is_still_caught_under_quorum(monkeypatch):
    monkeypatch.setattr(
        repro.chaos.runner,
        "SystemConfig",
        functools.partial(SystemConfig, strategy=CopyControlStrategy.QUORUM),
    )
    result = run_chaos_seed(3, txns=40, mutate=True)
    assert {v.invariant for v in result.violations} == {
        "convergence", "faillock-coverage",
    }


# -- timeout detection ----------------------------------------------------------------


def test_timeout_detection_aborts_first_txn_then_recovers():
    config = SystemConfig(
        db_size=10, num_sites=3, max_txn_size=4, seed=3,
        detection=FailureDetection.TIMEOUT,
    )
    scenario = Scenario(
        workload=OneOp(Operation(OpKind.WRITE, 1)),
        txn_count=10,
        policy=FixedSite(0),
    )
    scenario.add_action(3, FailSite(2))
    cluster = run_cluster(config, scenario)
    metrics = cluster.metrics
    # Exactly one abort: the first write after the silent failure.
    assert metrics.counters["aborts"] == 1
    assert metrics.aborted[0].abort_reason.value == "participant_failed"
    assert metrics.aborted[0].seq == 3
    # A type-2 control transaction was triggered by the discovery.
    assert metrics.counters["control_type2"] >= 1
    # Everything after commits against the surviving site.
    assert metrics.counters["commits"] == 9


def test_timeout_detection_consistency_preserved():
    config = SystemConfig(
        db_size=10, num_sites=3, max_txn_size=4, seed=3,
        detection=FailureDetection.TIMEOUT,
    )
    scenario = make_scenario(config, 30)
    scenario.add_action(5, FailSite(1))
    scenario.add_action(20, RecoverSite(1))
    cluster = run_cluster(config, scenario)
    assert cluster.audit_consistency() == []
