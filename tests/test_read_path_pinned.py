"""The ROWAA read path, pinned end to end.

A coordinator plans all of a transaction's reads in one call
(``RowaaPlanner.plan_reads``): one step in the steady state, ``plan_read``
item by item once the owner holds a stale copy or lacks one.  These runs
pin what that path decides, so a change to it must leave them byte for
byte where they are:

* short read-heavy soaks (Wisconsin mix, 90 % reads) under ROWAA and
  ROWA, through the soak's fail / recover cycle;
* one cluster run that takes every slow branch: a coordinator back from a
  cold crash, whose every copy is fail-locked (COPIER_NEEDED reads), over
  a partial catalog (REMOTE reads) that a type-3 control transaction
  changes mid-run.

The digests are ``conftest.digest`` (blake2b-128 of canonical JSON) of the
soak report and of the cluster's outcome, as ``bench/`` digests its
workloads.
"""

import dataclasses
from collections import Counter

import pytest

from repro.core.rowaa import ReadSource, RowaaPlanner
from repro.core.strategy import CopyControlStrategy
from repro.soak.engine import SoakConfig, run_soak
from repro.soak.report import build_report
from repro.storage.catalog import ReplicationCatalog
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.system.scenario import FailSite, RecoverSite, Scenario
from repro.workload.uniform import UniformWorkload

from conftest import digest


SOAK_PINS = {
    ("rowaa", 42): "4f8cd138e28226531fb39a5265621c35",
    ("rowaa", 7): "297e9bd57a0b9b563fca8fe6e1114c92",
    ("rowa", 42): "f576cfc6253069e9e50ac01409a68ce4",
    ("rowa", 7): "458f8132e803f2c487b2657ac44f1fd5",
}


def soak_report(seed: int, strategy: str, monkeypatch) -> dict:
    """The report of a 600-txn read-heavy soak under ``strategy``."""
    system_config = SoakConfig.system_config
    monkeypatch.setattr(
        SoakConfig,
        "system_config",
        lambda self: dataclasses.replace(
            system_config(self), strategy=CopyControlStrategy(strategy)
        ),
    )
    config = SoakConfig(seed=seed, txns=600, workload="wisconsin", read_fraction=0.9)
    return build_report(run_soak(config))


@pytest.mark.parametrize("strategy, seed", sorted(SOAK_PINS))
def test_read_heavy_soak_is_pinned(strategy, seed, monkeypatch):
    assert digest(soak_report(seed, strategy, monkeypatch)) == SOAK_PINS[strategy, seed]


SLOW_PATH_PIN = "4547ce66572c90fb921b7c3506010a55"


def slow_path_outcome() -> dict:
    """A cold-recovering coordinator over a partial, type-3-changed catalog.

    Items 0-5 are everywhere, 6-8 only on sites 1 and 2, 9-11 only on
    sites 0 and 1.  Site 0 coordinates reads of 6-8 remotely until a
    type-3 control transaction gives it a backup copy of item 6; it
    crashes cold before transaction 30 and recovers before 45, after which
    its every copy is fail-locked until a write or copier refreshes it.
    Site 1 is down for transactions 50-64, the only other holder of items
    9-11: a stale copy of one of those cannot be read anywhere.
    """
    config = SystemConfig(
        db_size=12, num_sites=3, max_txn_size=4, seed=11, cold_recovery=True
    )
    catalog = ReplicationCatalog(config.item_ids, config.site_ids)
    for item in config.item_ids:
        holders = (1, 2) if 6 <= item <= 8 else (0, 1) if item >= 9 else (0, 1, 2)
        for site in holders:
            catalog.add_copy(item, site)
    cluster = Cluster(config, catalog=catalog)
    donor = cluster.site(1)
    cluster.network.spawn(
        donor, lambda ctx: donor.initiate_backup(ctx, 6, 0), delay=400.0
    )
    scenario = Scenario(
        workload=UniformWorkload(config.item_ids, config.max_txn_size),
        txn_count=90,
    )
    scenario.add_action(30, FailSite(0))
    scenario.add_action(45, RecoverSite(0))
    scenario.add_action(50, FailSite(1))
    scenario.add_action(65, RecoverSite(1))
    metrics = cluster.run(scenario)
    assert cluster.audit_consistency() == []
    return {
        "txns": [
            [r.txn_id, r.coordinator, r.committed, r.abort_reason.value,
             r.copiers_requested, r.finished_at]
            for r in metrics.txns
        ],
        "counters": metrics.counters.as_dict(),
        "events": cluster.scheduler.fired,
        "messages": cluster.network.messages_sent,
        "holders": {item: sorted(catalog.holders(item)) for item in config.item_ids},
        "sites": [repr(site.signature()) for site in cluster.sites],
    }


def test_slow_read_path_is_pinned(monkeypatch):
    sources = Counter()
    plan_read = RowaaPlanner.plan_read

    def counted(planner, item_id):
        plan = plan_read(planner, item_id)
        sources[plan.source] += 1
        return plan

    monkeypatch.setattr(RowaaPlanner, "plan_read", counted)
    outcome = slow_path_outcome()
    # The run reaches every branch the pin is for.
    assert set(sources) == set(ReadSource)
    assert outcome["holders"][6] == [0, 1, 2]
    assert digest(outcome) == SLOW_PATH_PIN
