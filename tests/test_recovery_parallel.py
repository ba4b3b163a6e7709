"""repro.recovery: partition planner, parallel scheduler, recovery-window
edges (flapping, partition mid-recovery, donor crash mid-fan-out), and
the experiment/report stack."""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.chaos.faults import FaultPlan
from repro.chaos.runner import run_seed_sweep
from repro.check import CheckConfig, explore
from repro.core.copier import choose_copier_source
from repro.core.recovery import RecoveryPolicy
from repro.obs.schema import write_json
from repro.recovery import plan_partitions
from repro.recovery.experiment import run_recovery_cell, run_recovery_matrix
from repro.recovery.report import (
    RECOVERY_SCHEMA,
    build_recovery_report,
    render_recovery_text,
    validate_recovery_report,
    write_recovery_svg,
)
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.system.scenario import FailSite, RecoverSite, Scenario, Weighted
from repro.workload.uniform import UniformWorkload

from conftest import digest

from conftest import make_scenario, run_cluster

FIGURES = Path(__file__).resolve().parents[1] / "figures"


def parallel_config(**kw):
    defaults = dict(
        db_size=12,
        num_sites=4,
        max_txn_size=4,
        seed=7,
        cores=5,
        cold_recovery=True,
        recovery_policy=RecoveryPolicy.PARALLEL,
    )
    defaults.update(kw)
    return SystemConfig(**defaults)


# -- partition planner ---------------------------------------------------------


def _fresh_planner(num_sites=4):
    config = SystemConfig(db_size=12, num_sites=num_sites, seed=1)
    return Cluster(config).site(0).planner


def test_plan_partitions_balances_across_donors():
    planner = _fresh_planner()
    shards = plan_partitions(planner, range(12), exclude=(0,))
    assert sorted(shards) == [1, 2, 3]
    assert sorted(len(v) for v in shards.values()) == [4, 4, 4]
    covered = sorted(i for items in shards.values() for i in items)
    assert covered == list(range(12))
    for items in shards.values():
        assert items == sorted(items)


def test_plan_partitions_respects_exclude():
    planner = _fresh_planner()
    shards = plan_partitions(planner, range(12), exclude=(0, 1, 2))
    assert sorted(shards) == [3]
    assert shards[3] == list(range(12))


def test_plan_partitions_max_donors_defers_rather_than_overcommits():
    planner = _fresh_planner()
    shards = plan_partitions(planner, range(12), exclude=(0,), max_donors=2)
    assert len(shards) == 2
    # Under full replication every deferred-eligible item still fits an
    # opened donor, so nothing is actually dropped here.
    assert sum(len(v) for v in shards.values()) == 12


def test_plan_partitions_no_donor_items_absent():
    planner = _fresh_planner()
    shards = plan_partitions(planner, range(12), exclude=(0, 1, 2, 3))
    assert shards == {}


def test_plan_partitions_is_deterministic():
    planner = _fresh_planner()
    first = plan_partitions(planner, range(12), exclude=(0,))
    second = plan_partitions(planner, range(12), exclude=(0,))
    assert first == second


def _random_planner(rng, sites, items):
    """A planner over a random catalog, fail-lock table and session view."""
    from repro.core.faillocks import FailLockTable
    from repro.core.rowaa import RowaaPlanner
    from repro.core.sessions import NominalSessionVector
    from repro.storage.catalog import ReplicationCatalog

    catalog = ReplicationCatalog(items, sites)
    for item in items:
        # Partial replication: some donors hold few (or no) eligible items.
        for site in rng.sample(sites, rng.randint(1, len(sites))):
            catalog.add_copy(item, site)
    locks = FailLockTable(sites, items)
    for item in items:
        for site in sites[1:]:
            if rng.random() < 0.25:
                locks.set_lock(item, site)
    nsv = NominalSessionVector(owner=sites[0], site_ids=sites)
    for site in sites[1:]:
        if rng.random() < 0.2:
            nsv.mark_down(site)
    return RowaaPlanner(sites[0], nsv, locks, catalog)


@pytest.mark.parametrize("seed", range(40))
def test_bounded_plan_is_the_unbounded_plan_cut_per_donor(seed):
    import random

    rng = random.Random(seed)
    sites = list(range(rng.randint(2, 7)))
    items = list(range(rng.randint(1, 60)))
    planner = _random_planner(rng, sites, items)
    stale = rng.sample(items, rng.randint(1, len(items)))  # any order
    for _ in range(12):
        exclude = rng.sample(sites, rng.randint(0, len(sites) - 1))
        max_donors = rng.randint(0, len(sites))
        batch_size = rng.randint(1, 8)
        full = plan_partitions(planner, stale, exclude=exclude, max_donors=max_donors)
        bounded = plan_partitions(
            planner, stale, exclude=exclude, max_donors=max_donors,
            batch_size=batch_size,
        )
        assert bounded == {d: shard[:batch_size] for d, shard in full.items()}


def _record_lookups(planner) -> list:
    asked = []
    sources = planner.up_to_date_sources
    planner.up_to_date_sources = lambda item: asked.append(item) or sources(item)
    return asked


def test_bounded_plan_stops_reading_once_every_donor_is_full():
    # Donors 1-3 are up and current everywhere; down sites 4-7 hold
    # fail-locks spelling out each item's id, so no two items share a
    # class and every item the planner reads costs one lookup.
    planner = _fresh_planner(num_sites=8)
    for site in range(4, 8):
        planner.vector.mark_down(site)
        planner.faillocks.set_locks([i for i in range(12) if i >> (site - 4) & 1], site)
    asked = _record_lookups(planner)
    shards = plan_partitions(planner, range(12), batch_size=2)
    assert shards == {1: [0, 3], 2: [1, 4], 3: [2, 5]}
    assert asked == [0, 1, 2, 3, 4, 5]  # 3 donors x 2, not the 12 stale items
    # A fan-out cap shrinks the set of donors that have to fill up.
    asked.clear()
    assert plan_partitions(planner, range(12), max_donors=1, batch_size=2) == {1: [0, 1]}
    assert asked == [0, 1]


def test_one_donor_lookup_per_faillock_class():
    # A cold-crashed owner: every stale item has the same mask and holders.
    planner = _fresh_planner()
    planner.faillocks.set_locks(range(12), 0)
    asked = _record_lookups(planner)
    assert plan_partitions(planner, range(12)) == {
        1: [0, 3, 6, 9], 2: [1, 4, 7, 10], 3: [2, 5, 8, 11]
    }
    assert asked == [0]
    asked.clear()
    assert choose_copier_source(planner, range(12)) == dict.fromkeys(range(12), 1)
    assert asked == [0]
    # A second class (donor 1 stale too) costs exactly one more lookup.
    planner.faillocks.set_locks([5, 7], 1)
    asked.clear()
    chosen = choose_copier_source(planner, range(12), spread=True)
    assert asked == [0, 5]
    assert chosen[5] == [2, 3][5 % 2] and chosen[6] == [1, 2, 3][6 % 3]


@pytest.mark.parametrize("seed", range(20))
def test_donor_lookup_answers_what_each_item_would(seed):
    import random

    rng = random.Random(seed)
    sites = list(range(rng.randint(2, 7)))
    items = list(range(rng.randint(1, 60)))
    planner = _random_planner(rng, sites, items)
    donors_of = planner.donor_lookup()
    for item in rng.sample(items, len(items)):
        assert donors_of(item) == planner.up_to_date_sources(item)


def test_donor_lookup_raises_for_unknown_items():
    from repro.errors import FailLockError

    planner = _fresh_planner()
    with pytest.raises(FailLockError):
        plan_partitions(planner, [0, 99])
    with pytest.raises(FailLockError):
        choose_copier_source(planner, [99])


def test_bounded_plan_reads_on_while_some_donor_cannot_fill():
    planner = _fresh_planner()
    # Donor 3 is current for item 11 only: it can never hold a full
    # batch, so the planner has to read the whole list to find that out.
    for item in range(11):
        planner.faillocks.set_lock(item, 3)
    bounded = plan_partitions(planner, range(12), batch_size=2)
    assert bounded == {1: [0, 2], 2: [1, 3], 3: [11]}


def test_planner_rejects_mismatched_site_sets():
    from repro.core.faillocks import FailLockTable
    from repro.core.rowaa import RowaaPlanner
    from repro.core.sessions import NominalSessionVector
    from repro.storage.catalog import ReplicationCatalog

    with pytest.raises(ValueError):
        RowaaPlanner(
            0,
            NominalSessionVector(owner=0, site_ids=[0, 1, 2]),
            FailLockTable([0, 1], [0]),
            ReplicationCatalog.fully_replicated([0], [0, 1, 2]),
        )


# -- donor spreading (satellite: choose_copier_source) -------------------------


def test_choose_copier_source_default_elects_lowest():
    planner = _fresh_planner()
    chosen = choose_copier_source(planner, [0, 1, 2])
    assert all(s == 1 or s >= 0 for s in chosen.values())
    baseline = {item: planner.up_to_date_source(item) for item in [0, 1, 2]}
    assert chosen == baseline


def test_choose_copier_source_spread_rotates_by_item_id():
    planner = _fresh_planner()
    chosen = choose_copier_source(planner, list(range(8)), spread=True)
    donors = planner.up_to_date_sources(0)
    for item, site in chosen.items():
        assert site == donors[item % len(donors)]
    assert len(set(chosen.values())) > 1


def test_spread_flag_default_off_in_config():
    assert SystemConfig().spread_copier_sources is False


def test_spread_run_stays_consistent():
    config = parallel_config(
        recovery_policy=RecoveryPolicy.ON_DEMAND,
        cold_recovery=False,
        spread_copier_sources=True,
    )
    scenario = make_scenario(config, 20)
    scenario.add_action(3, FailSite(1))
    scenario.add_action(8, RecoverSite(1))
    scenario.until_recovered = (1,)
    scenario.max_txns = 1000
    cluster = run_cluster(config, scenario)
    assert cluster.audit_consistency() == []
    assert cluster.faillock_counts()[1] == 0


# -- parallel recovery end to end ----------------------------------------------


def test_parallel_recovery_completes_and_converges():
    config = parallel_config()
    scenario = make_scenario(config, 20)
    scenario.add_action(3, FailSite(0))
    scenario.add_action(8, RecoverSite(0))
    scenario.until_recovered = (0,)
    scenario.max_txns = 1000
    cluster = run_cluster(config, scenario)
    assert cluster.audit_consistency() == []
    assert cluster.faillock_counts()[0] == 0
    stats = cluster.site(0).recovery.stats
    assert stats.complete
    assert stats.batch_copier_requests > 1  # fan-out, not one batch chain


def test_parallel_uses_multiple_donors():
    cell = run_recovery_cell("parallel", 4, 32, seed=11)
    sequential = run_recovery_cell("two_step", 4, 32, seed=11)
    assert cell.recovery_ms < sequential.recovery_ms


def test_parallel_beats_two_step_at_four_donors():
    sequential = run_recovery_cell("two_step", 4, 64)
    parallel = run_recovery_cell("parallel", 4, 64)
    assert sequential.recovery_ms / parallel.recovery_ms >= 1.5


def test_donor_crash_mid_fanout_replans_and_completes():
    # Site 0 recovers in parallel; one donor dies in the same slot, i.e.
    # genuinely inside the recovery period with shards in flight.  The
    # scheduler must bounce, re-plan to the surviving donors, and still
    # clear every fail-lock.
    config = parallel_config(num_sites=5, cores=6, db_size=16)
    weights = {0: 0.0, 1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0}
    scenario = Scenario(
        workload=UniformWorkload(config.item_ids, config.max_txn_size),
        txn_count=12,
        policy=Weighted(weights),
        until_recovered=(0,),
        max_txns=1000,
    )
    scenario.until_recovered = (0, 3)
    scenario.add_action(2, FailSite(0))
    scenario.add_action(5, RecoverSite(0))
    scenario.add_action(5, FailSite(3))  # donor dies mid-fan-out
    scenario.add_action(9, RecoverSite(3))
    cluster = run_cluster(config, scenario)
    assert cluster.faillock_counts()[0] == 0
    assert cluster.site(0).recovery.stats.complete
    assert cluster.audit_consistency() == []


def test_flapping_site_interrupts_then_completes_recovery():
    config = parallel_config()
    scenario = make_scenario(config, 16)
    scenario.add_action(2, FailSite(0))
    scenario.add_action(5, RecoverSite(0))
    scenario.add_action(5, FailSite(0))  # re-fail inside the period
    scenario.add_action(10, RecoverSite(0))
    scenario.until_recovered = (0,)
    scenario.max_txns = 1000
    cluster = run_cluster(config, scenario)
    records = cluster.metrics.recoveries
    assert [r.interrupted for r in records] == [True, False]
    assert records[0].site_id == 0
    assert records[0].policy == "parallel"
    assert records[0].finished_at == -1.0
    assert records[1].elapsed > 0
    assert cluster.metrics.counters.get("recovery_periods") == 2
    assert cluster.metrics.counters.get("recovery_periods_interrupted") == 1
    assert cluster.audit_consistency() == []


# -- chaos presets -------------------------------------------------------------


def test_correlated_preset_is_clean_and_interrupts_nothing_by_default():
    report = run_seed_sweep(range(5), plan=FaultPlan.correlated(), txns=40)
    assert report.dirty_seeds == []
    assert report.stalled_seeds == []
    assert sum(r.recovery_periods for r in report.results) > 0


def test_flapping_preset_is_clean_and_interrupts_recoveries():
    report = run_seed_sweep(range(5), plan=FaultPlan.flapping(), txns=40)
    assert report.dirty_seeds == []
    assert report.stalled_seeds == []
    assert sum(r.interrupted_recoveries for r in report.results) > 0


def test_partition_recovery_preset_is_clean():
    report = run_seed_sweep(
        range(5), plan=FaultPlan.partition_recovery(), txns=40
    )
    assert report.dirty_seeds == []
    assert report.stalled_seeds == []


def test_preset_describe_lines_are_distinct():
    descriptions = {
        FaultPlan.correlated().describe(),
        FaultPlan.flapping().describe(),
        FaultPlan.partition_recovery().describe(),
        FaultPlan().describe(),
    }
    assert len(descriptions) == 4


def test_classic_plan_is_not_a_recovery_scenario():
    assert not FaultPlan().recovery_scenario
    assert FaultPlan.correlated().recovery_scenario
    assert FaultPlan.flapping().recovery_scenario
    assert FaultPlan.partition_recovery().recovery_scenario


def test_preset_sweeps_replay_byte_identically():
    for plan in (FaultPlan.correlated(), FaultPlan.flapping(),
                 FaultPlan.partition_recovery()):
        first = run_seed_sweep(range(2), plan=plan, txns=30)
        second = run_seed_sweep(range(2), plan=plan, txns=30)
        assert first.results == second.results


# -- repro.check under the parallel policy -------------------------------------


def test_check_explores_parallel_recovery_clean():
    result = explore(
        CheckConfig(txns=2, recovery_policy="parallel"), max_runs=40
    )
    assert result.violation is None


def test_check_explores_flapping_budget_clean():
    result = explore(
        CheckConfig(
            txns=3,
            recovery_policy="parallel",
            max_crashes=2,
            max_recoveries=2,
        ),
        max_runs=40,
    )
    assert result.violation is None


def test_check_schedule_files_roundtrip_recovery_policy():
    config = CheckConfig(recovery_policy="parallel")
    assert CheckConfig.from_dict(config.to_dict()) == config
    # Old schedule files (no key) load with the byte-identical default.
    legacy = {k: v for k, v in config.to_dict().items()
              if k != "recovery_policy"}
    assert CheckConfig.from_dict(legacy).recovery_policy == "on_demand"


# -- experiment / report ------------------------------------------------------


def test_recovery_cell_measures_full_stale_set():
    cell = run_recovery_cell("parallel", 2, 16)
    assert cell.initial_stale == 16
    assert cell.recovery_ms > 0
    assert cell.refreshed_by_copier + cell.refreshed_by_write >= 16


def test_on_demand_cell_closes_at_256_stale_items():
    # on_demand refreshes only what transactions touch, so its tail needs
    # far more than the 200 transactions every cell used to be capped at.
    cell = run_recovery_cell("on_demand", 1, 256)
    assert cell.initial_stale == 256
    assert cell.copier_requests == 0
    assert cell.refreshed_by_write == 256


def test_recovery_cell_rejects_bad_shapes():
    with pytest.raises(Exception):
        run_recovery_cell("parallel", 0, 16)
    with pytest.raises(Exception):
        run_recovery_cell("parallel", 2, 0)


def test_recovery_report_builds_validates_and_is_deterministic(tmp_path):
    cells = run_recovery_matrix(
        donor_counts=(2, 4), stale_sizes=(16,), seed=5
    )
    doc = build_recovery_report(cells, seed=5)
    assert doc["schema"] == RECOVERY_SCHEMA
    assert validate_recovery_report(doc) == []
    assert doc["speedup"]["min_at_4plus_donors"] is not None
    text = render_recovery_text(doc)
    assert "speedup" in text
    path_a = write_json(doc, tmp_path / "a.json")
    again = build_recovery_report(
        run_recovery_matrix(donor_counts=(2, 4), stale_sizes=(16,), seed=5),
        seed=5,
    )
    path_b = write_json(again, tmp_path / "b.json")
    assert path_a.read_bytes() == path_b.read_bytes()


def test_recovery_report_validation_catches_corruption():
    cells = run_recovery_matrix(donor_counts=(2,), stale_sizes=(16,), seed=5)
    doc = build_recovery_report(cells, seed=5)
    doc["cells"][0]["recovery_ms"] = -1.0
    assert any(
        p.startswith("cells[0].recovery_ms: -1.0 outside (0")
        for p in validate_recovery_report(doc)
    )
    doc2 = build_recovery_report(cells, seed=5)
    doc2["schema"] = "bogus"
    assert any("schema" in p for p in validate_recovery_report(doc2))


def test_recovery_report_validation_never_raises_or_passes_garbage():
    """Three holes of the hand-rolled validator: a non-object pair raised
    AttributeError, ``"recovery_ms": "fast"`` passed, and ``"config": {}``
    passed only for ``render_recovery_text`` to KeyError on it."""
    cells = run_recovery_matrix(donor_counts=(2,), stale_sizes=(16,), seed=5)

    def problems_after(corrupt):
        doc = build_recovery_report(cells, seed=5)
        corrupt(doc)
        return validate_recovery_report(doc)

    assert problems_after(lambda d: d["speedup"]["pairs"].__setitem__(0, 7)) == [
        "speedup.pairs[0]: expected object, got int"
    ]
    assert problems_after(
        lambda d: d["cells"][0].__setitem__("recovery_ms", "fast")
    ) == ["cells[0].recovery_ms: expected number, got str"]
    assert problems_after(lambda d: d.__setitem__("config", {})) == [
        f"config.{key}: missing"
        for key in ("seed", "wire_latency_ms", "donor_counts", "stale_sizes",
                    "policies")
    ]


def test_committed_recovery_artifact_regenerates_byte_for_byte(tmp_path):
    """All 24 cells of figures/recovery_time.json are exact simulated
    milliseconds (the 4-donor x 64-stale gate cell, 1245.15 vs 558.15 ms,
    among them): any drift in the cost model, the planner or the scheduler
    moves a byte here."""
    doc = build_recovery_report(
        run_recovery_matrix(
            donor_counts=(1, 2, 4, 6), stale_sizes=(16, 32, 64), seed=42
        ),
        seed=42,
    )
    report = write_json(doc, tmp_path / "recovery_time.json")
    svg = write_recovery_svg(doc, tmp_path / "recovery_time.svg")
    assert report.read_bytes() == (FIGURES / report.name).read_bytes()
    assert svg.read_bytes() == (FIGURES / svg.name).read_bytes()


def test_committed_recovery_report_meets_acceptance():
    import json

    doc = json.loads((FIGURES / "recovery_time.json").read_text())
    assert validate_recovery_report(doc) == []
    assert doc["speedup"]["min_at_4plus_donors"] >= 1.5


# -- metrics surfacing ---------------------------------------------------------


def test_soak_report_gains_recoveries_only_for_non_default_policy():
    from repro.soak import SoakConfig, build_report, run_soak

    base = dict(txns=120, rate_tps=40.0, db_size=32, exemplars=0, seed=9)
    default_doc = build_report(run_soak(SoakConfig(**base)))
    assert "recoveries" not in default_doc
    assert "recovery_policy" not in default_doc["config"]
    parallel_doc = build_report(
        run_soak(SoakConfig(recovery_policy="parallel", **base))
    )
    assert parallel_doc["config"]["recovery_policy"] == "parallel"
    assert isinstance(parallel_doc["recoveries"], list)
    assert parallel_doc["recoveries"], "fault cycle should close a period"
    record = parallel_doc["recoveries"][0]
    assert record["policy"] == "parallel"
    assert record["initial_stale"] > 0


# -- CLI surface ---------------------------------------------------------------


def test_cli_recovery_writes_valid_report(tmp_path, capsys):
    import json

    from repro.cli import main

    out = tmp_path / "recovery.json"
    svg = tmp_path / "recovery.svg"
    rc = main(
        ["recovery", "--donors", "2", "4", "--stale", "16",
         "--out", str(out), "--svg", str(svg)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert validate_recovery_report(doc) == []
    assert svg.read_text().startswith("<svg")
    captured = capsys.readouterr()
    assert "speedup" in captured.out


def test_cli_chaos_recovery_modes_exit_zero(capsys):
    from repro.cli import main

    for mode in ("correlated", "flapping", "partition-recovery"):
        rc = main(["chaos", "--mode", mode, "--seeds", "2", "--txns", "30"])
        assert rc == 0, mode
        assert "recovery:" in capsys.readouterr().out


def test_cli_soak_trace_exemplars_roundtrip(tmp_path, capsys):
    from repro.cli import main
    from repro.obs import validate_run_dir

    out = tmp_path / "soakrun"
    rc = main(
        ["--seed", "7", "soak", "run", "--txns", "80", "--rate", "40",
         "--exemplars", "4", "--recovery-policy", "two_step",
         "--trace-exemplars", str(out)]
    )
    assert rc == 0
    assert validate_run_dir(out) == []
    captured = capsys.readouterr()
    assert "repro trace show" in captured.out
    import json

    exemplars = json.loads((out / "exemplars.json").read_text())
    assert exemplars["txns"] == sorted(exemplars["txns"])
    assert exemplars["txns"]


@pytest.mark.parametrize(
    "seed, pin",
    [(42, "0aa64f312cada17457b3c201305613c6"), (7, "ba4419fe7922fd7ebc6fb246473757fe")],
)
def test_recovery_matrix_digest_is_pinned(seed, pin):
    """The recovery round trip is host-only work: a faster fail-lock table,
    re-plan or message fabric must leave every cell's numbers (sim-ms,
    copier and refresh counts) exactly where they were."""
    cells = run_recovery_matrix(
        donor_counts=(1, 4),
        stale_sizes=(64,),
        policies=("two_step", "parallel"),
        seed=seed,
    )
    assert digest([asdict(c) for c in cells]) == pin
