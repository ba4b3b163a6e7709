"""Copy-control strategy predicates, their analytic availability, and the
cluster enforcing exactly those predicates."""

import pytest

from repro.core.strategy import (
    COPY_CONTROL,
    CopyControlStrategy,
    QuorumStrategy,
    RowaStrategy,
    RowaaStrategy,
)
from repro.errors import ConfigurationError
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.system.scenario import FailSite, FixedSite, Scenario
from repro.txn.operations import OpKind, Operation
from repro.workload.base import WorkloadGenerator

from conftest import FREE_COSTS


def test_rowaa_available_with_one_site():
    s = RowaaStrategy(4)
    assert s.can_read(1)
    assert s.can_write(1)
    assert not s.can_write(0)


def test_rowa_write_needs_all():
    s = RowaStrategy(4)
    assert s.can_read(1)
    assert s.can_write(4)
    assert not s.can_write(3)


def test_quorum_majority_default():
    s = QuorumStrategy(4)
    assert s.can_read(3) and s.can_write(3)
    assert not s.can_read(2) and not s.can_write(2)


# -- analytic availability ---------------------------------------------------------


def test_rowaa_availability_dominates_rowa():
    p = 0.9
    rowaa = RowaaStrategy(4)
    rowa = RowaStrategy(4)
    assert rowaa.write_availability(p) > rowa.write_availability(p)
    assert rowaa.read_availability(p) == rowa.read_availability(p)


def test_rowa_write_availability_is_p_to_the_n():
    s = RowaStrategy(3)
    assert s.write_availability(0.9) == pytest.approx(0.9**3)


def test_rowaa_availability_closed_form():
    # 1 - (1-p)^n: at least one site up.
    s = RowaaStrategy(4)
    p = 0.8
    assert s.write_availability(p) == pytest.approx(1 - (1 - p) ** 4)


def test_quorum_availability_between_rowa_and_rowaa():
    p = 0.9
    quorum = QuorumStrategy(5).write_availability(p)
    assert RowaStrategy(5).write_availability(p) < quorum
    assert quorum < RowaaStrategy(5).write_availability(p)


def test_availability_at_extremes():
    for strategy in (RowaaStrategy(4), RowaStrategy(4), QuorumStrategy(4)):
        assert strategy.write_availability(1.0) == pytest.approx(1.0)
        assert strategy.write_availability(0.0) == pytest.approx(0.0)


def test_bad_probability_rejected():
    with pytest.raises(ConfigurationError):
        RowaaStrategy(2).read_availability(1.5)


# -- the cluster runs the same predicates ------------------------------------------


class WriteThenRead(WorkloadGenerator):
    """One write-only transaction, then one read-only transaction."""

    def generate(self, txn_seq, rng):
        kind = OpKind.WRITE if txn_seq % 2 else OpKind.READ
        return [Operation(kind, txn_seq % 2)]


@pytest.mark.parametrize("down", [0, 1, 2, 3])
@pytest.mark.parametrize("strategy", list(CopyControlStrategy), ids=lambda s: s.value)
def test_the_coordinator_refuses_exactly_what_the_predicates_refuse(strategy, down):
    config = SystemConfig(
        db_size=4, num_sites=4, max_txn_size=1, seed=1,
        costs=FREE_COSTS, strategy=strategy,
    )
    cluster = Cluster(config)
    scenario = Scenario(workload=WriteThenRead(), txn_count=2, policy=FixedSite(3))
    for site in range(down):
        scenario.add_action(1, FailSite(site))
    cluster.run(scenario)

    control = COPY_CONTROL[strategy](config.num_sites)
    up = config.num_sites - down
    refused = [not control.can_write(up), not control.can_read(up)]
    assert cluster.metrics.counters.get("aborts") == sum(refused)
    reasons = {r.abort_reason for r in cluster.metrics.txns if not r.committed}
    assert reasons == ({control.refusal} if any(refused) else set())
