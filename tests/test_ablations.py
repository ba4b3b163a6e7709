"""Ablations A1-A12 and the two always-on layers (DESIGN.md's index).

Each test pins the qualitative claim an ablation exists to show — which
direction a trend runs, who aborts, what stays equal — on the same
runners `repro ablations` and EXPERIMENTS.md use.  Nothing here reads a
clock: what the auditor and the retransmission layer cost in host time
is the repo benchmark's to measure (`chaos.invariants.self_share`,
`net.reliable.self_share` in `chaos-sweep`'s traced pass).
"""

import pytest

from repro.chaos import FaultPlan, build_chaos_scenario, run_chaos_seed
from repro.core.strategy import QuorumStrategy, RowaStrategy, RowaaStrategy
from repro.experiments import ablations
from repro.storage.catalog import ReplicationCatalog
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.system.scenario import FailSite, FixedSite, Scenario
from repro.txn.operations import OpKind, Operation
from repro.workload.base import WorkloadGenerator

from conftest import copies


# -- A1: two-step recovery (§3.2) ------------------------------------------------


def test_a1_batch_copiers_cut_the_recovery_tail():
    results = ablations.run_two_step_recovery(thresholds=(0.1, 0.4))
    by_name = {(r.policy, r.threshold): r for r in results}
    on_demand = by_name[("on_demand", 0.0)]
    mild = by_name[("two_step", 0.1)]
    aggressive = by_name[("two_step", 0.4)]
    # The higher the threshold, the more of the tail the batches take.
    assert mild.txns_to_recover < on_demand.txns_to_recover
    assert aggressive.txns_to_recover < mild.txns_to_recover
    assert aggressive.batch_copiers > 0
    assert on_demand.batch_copiers == 0


# -- A2: clear-fail-locks embedded in 2PC (§2.2.3) -------------------------------


def test_a2_embedded_clearing_is_cheaper():
    by_mode = {r.mode: r for r in ablations.run_embedded_clearing()}
    special = by_mode["special_txn"]
    embedded = by_mode["embedded"]
    assert special.samples >= 5 and embedded.samples >= 5
    # Embedding removes the per-peer clear messages from the critical path.
    assert embedded.txn_with_copier < special.txn_with_copier - 10.0


# -- A3: read/write ratio (§5) ---------------------------------------------------


def test_a3_fewer_writes_lock_slower_and_lean_on_copiers():
    results = ablations.run_read_write_ratio()
    by_wp = {r.write_probability: r for r in results}
    # More writes while down -> more fail-locks at the peak.
    assert by_wp[0.1].peak_locks < by_wp[0.5].peak_locks <= by_wp[0.7].peak_locks + 2
    # Fewer writes -> recovery leans more on copier transactions.
    assert by_wp[0.1].copiers >= by_wp[0.7].copiers


# -- A4: ROWAA vs strict ROWA vs quorum consensus --------------------------------


def test_a4_strategy_availability_ordering():
    by_name = {r.strategy: r for r in ablations.run_strategy_comparison()}
    assert by_name["rowaa"].aborts == 0
    assert by_name["quorum"].aborts == 0      # one failure of four: majority holds
    assert by_name["rowa"].aborts > 40        # every write during a down window
    assert set(by_name["rowa"].abort_reasons) == {"write_all_blocked"}

    # The closed-form models agree on the ordering (p = 0.9, n = 4).
    rowaa = RowaaStrategy(4).write_availability(0.9)
    quorum = QuorumStrategy(4).write_availability(0.9)
    rowa = RowaStrategy(4).write_availability(0.9)
    assert rowa < quorum < rowaa


# -- A5: announced vs timeout failure detection ----------------------------------


def test_a5_timeout_detection_costs_one_abort_per_discovery():
    by_mode = {r.detection: r for r in ablations.run_failure_detection()}
    announced = by_mode["announced"]
    timeout = by_mode["timeout"]
    assert announced.aborts == 0
    # Four failures -> at most four discovery aborts (a failure found by a
    # read-only or already-announced window costs nothing).
    assert 1 <= timeout.aborts <= 4
    assert timeout.commits + timeout.aborts == announced.commits
    assert timeout.type2_controls >= 1


# -- A6: ET1 and Wisconsin workloads (§5 future work) ----------------------------


def test_a6_every_workload_fails_and_recovers():
    results = ablations.run_benchmark_workloads()
    for result in results:
        assert result.peak_locks > 10          # the failure bites
        assert result.txns_to_recover > 0      # and recovery completes
        assert result.aborts == 0
    assert sorted(r.workload.split("(")[0] for r in results) == [
        "et1", "uniform", "wisconsin"
    ]


# -- A7: type-3 control transactions (§3.2) --------------------------------------


class ReadItem(WorkloadGenerator):
    def __init__(self, item: int) -> None:
        self.item = item

    def generate(self, txn_seq, rng):
        return [Operation(OpKind.READ, self.item)]


def run_type3_scenario(with_backup: bool) -> tuple[int, float]:
    """(aborts, type-3 elapsed ms or 0) for five reads of item 2 after its
    sole holder, site 0, fails."""
    config = SystemConfig(db_size=3, num_sites=3, max_txn_size=2, seed=9)
    catalog = ReplicationCatalog(range(3), range(3))
    for site in range(3):
        catalog.add_copy(0, site)
        catalog.add_copy(1, site)
    catalog.add_copy(2, 0)
    cluster = Cluster(config, catalog=catalog)
    elapsed = 0.0
    if with_backup:
        site0 = cluster.site(0)
        cluster.network.spawn(site0, lambda ctx: site0.initiate_backup(ctx, 2, 1))
        cluster.scheduler.run()
        elapsed = next(c for c in cluster.metrics.controls if c.kind == 3).elapsed
    scenario = Scenario(workload=ReadItem(2), txn_count=5, policy=FixedSite(1))
    scenario.add_action(1, FailSite(0))
    cluster.run(scenario)
    return cluster.metrics.counters.get("aborts"), elapsed


def test_a7_backup_copy_keeps_the_item_readable():
    aborts_with, elapsed = run_type3_scenario(with_backup=True)
    aborts_without, _ = run_type3_scenario(with_backup=False)
    # Without the backup every read of item 2 aborts once site 0 is down;
    # with it the availability gain is total.
    assert aborts_without == 5
    assert aborts_with == 0
    # The type-3 cost is of the same order as the other control transactions.
    assert 0 < elapsed < 200


# -- A8: the "complete RAID" concurrent mode (§5 future work) --------------------


@pytest.fixture(scope="module")
def rate_sweep():
    sweep = ablations.run_concurrent_sweep()
    assert list(sweep) == [2.0, 6.0, 12.0]
    return tuple(sweep.values())


def test_a8_throughput_tracks_offered_load(rate_sweep):
    low, mid, high = rate_sweep
    assert low.throughput_tps > 1.5
    assert mid.throughput_tps > 2.5 * low.throughput_tps * 0.8
    assert high.throughput_tps > mid.throughput_tps
    # Latency stays bounded below saturation (no runaway queueing).
    assert high.latency.mean < 10 * low.latency.mean


def test_a8_only_deadlock_victims_abort(rate_sweep):
    for result in rate_sweep:
        assert result.commits + result.aborts == result.txn_count
        assert result.aborts == result.deadlock_aborts


def test_a8_contention_grows_with_arrival_rate(rate_sweep):
    low, mid, high = rate_sweep
    assert high.lock_parks >= mid.lock_parks >= low.lock_parks


# -- A9: warm vs cold crash ------------------------------------------------------


def test_a9_cold_crash_starts_fully_stale():
    by_model = {r.model: r for r in ablations.run_crash_models()}
    warm = by_model["warm"]
    cold = by_model["cold"]
    assert cold.initial_stale >= 49          # everything (db=50) stale
    assert warm.initial_stale < cold.initial_stale
    assert cold.txns_to_recover >= warm.txns_to_recover * 0.8
    assert warm.txns_to_recover > 0 and cold.txns_to_recover > 0


# -- A10: the §2.2.2 scaling claims ----------------------------------------------


@pytest.fixture(scope="module")
def scaling():
    results = ablations.run_control_scaling()
    return {(r.num_sites, r.db_size): r for r in results}


def test_a10_type1_recovering_grows_with_sites(scaling):
    assert (
        scaling[(2, 50)].type1_recovering
        < scaling[(4, 50)].type1_recovering
        < scaling[(8, 50)].type1_recovering
    )


def test_a10_type1_operational_flat_in_sites_grows_with_db(scaling):
    assert scaling[(2, 50)].type1_operational == scaling[(8, 50)].type1_operational
    assert (
        scaling[(2, 200)].type1_operational
        > 2 * scaling[(2, 50)].type1_operational
    )


def test_a10_type2_independent_of_sites_and_db(scaling):
    assert scaling[(2, 50)].type2 == scaling[(8, 50)].type2 == scaling[(4, 200)].type2


# -- A11: partitions — the ROWAA anomaly vs quorum safety ------------------------


@pytest.fixture(scope="module")
def partition():
    return {r.strategy: r for r in ablations.run_partition_anomaly()}


def test_a11_rowaa_stays_available_and_diverges(partition):
    rowaa, quorum = partition["rowaa"], partition["quorum"]
    assert rowaa.commits_during_partition > quorum.commits_during_partition
    assert rowaa.divergent_items > 0


def test_a11_quorum_gives_up_the_minority_and_stays_consistent(partition):
    quorum = partition["quorum"]
    assert quorum.aborts_during_partition > 0
    assert quorum.commits_during_partition > 0  # majority half keeps going
    assert quorum.divergent_items == 0


# -- A12: submission bias during recovery ----------------------------------------


def test_a12_copiers_rise_with_the_recovering_sites_share():
    results = ablations.run_submission_bias()
    by_share = {r.recovering_share: r for r in results}
    assert by_share[0.0].copiers == 0
    assert by_share[0.05].copiers <= 3        # the paper's "2" regime
    assert by_share[0.5].copiers > 3 * max(by_share[0.05].copiers, 1)
    # More copier traffic shifts refreshing from writes to copiers.
    assert (
        by_share[0.5].refreshed_by_copier > by_share[0.05].refreshed_by_copier
    )
    assert all(r.txns_to_recover > 0 for r in results)


# -- the auditor observes, it does not perturb -----------------------------------


def test_auditing_does_not_perturb_the_run():
    audited = run_chaos_seed(42, txns=60, audit=True)
    bare = run_chaos_seed(42, txns=60, audit=False)
    assert audited.violations == []
    assert audited.checks > 100
    assert bare.checks == 0
    # Same seed, same faults, same schedule.
    assert audited.commits == bare.commits
    assert audited.aborts == bare.aborts
    assert audited.fault_stats.total == bare.fault_stats.total


# -- the retransmission layer is transparent when nothing is lost ----------------


def run_lossfree(with_retry_layer: bool) -> Cluster:
    """One fault-free chaos-shaped run (crash/recover schedule only)."""
    plan = FaultPlan(
        full_fault_model=with_retry_layer,
        drop_rate=0.0,
        duplicate_rate=0.0,
        delay_rate=0.0,
        reorder_rate=0.0,
    )
    config = SystemConfig(
        db_size=32,
        num_sites=4,
        seed=42,
        wire_latency_ms=2.0,
        reliable_delivery=with_retry_layer,
        timeouts_enabled=with_retry_layer,
    )
    cluster = Cluster(config)
    scenario = build_chaos_scenario(
        config, plan, cluster.rng.stream("chaos.schedule"), txn_count=60
    )
    cluster.run(scenario)
    return cluster


@pytest.fixture(scope="module")
def lossfree():
    return run_lossfree(True), run_lossfree(False)


def test_retry_layer_changes_no_outcome_without_loss(lossfree):
    with_layer, without_layer = lossfree
    assert with_layer.network.reliable is not None
    assert without_layer.network.reliable is None
    assert with_layer.metrics.counters.get("commits") > 0
    # Same seed, same schedule, no faults: not one protocol outcome moves.
    for counter in ("commits", "aborts", "control_type2"):
        assert with_layer.metrics.counters.get(
            counter
        ) == without_layer.metrics.counters.get(counter)
    for site_on, site_off in zip(with_layer.sites, without_layer.sites):
        assert copies(site_on.db) == copies(site_off.db)
        assert site_on.faillocks.snapshot() == site_off.faillocks.snapshot()
    stats = with_layer.network.reliable.stats
    assert stats.retransmissions == 0, "retried without any loss"
    assert stats.duplicates_suppressed == 0
    assert stats.gave_up == 0


def test_retry_layer_message_amplification_is_bounded(lossfree):
    # One transport ack per tracked message is the designed amplification;
    # past ~2x message volume the layer is chattier than it claims.
    sent_on, sent_off = (c.network.messages_sent for c in lossfree)
    assert sent_on <= 2.2 * sent_off, (
        f"message amplification too high: {sent_on} vs {sent_off}"
    )
