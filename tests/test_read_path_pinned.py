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

Each test pins (``conftest.pin``, ledger ``tests/pins.json``) the soak
report or the cluster's outcome.
"""

from collections import Counter

import pytest

from repro.core.rowaa import ReadSource, RowaaPlanner
from repro.soak.report import build_report
from repro.storage.catalog import ReplicationCatalog
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.system.scenario import FailSite, RecoverSite, Scenario
from repro.workload.uniform import UniformWorkload

from conftest import soak_under


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("strategy", ["rowaa", "rowa"])
def test_read_heavy_soak_is_pinned(strategy, seed, monkeypatch, pin):
    result = soak_under(
        monkeypatch, strategy, seed=seed, txns=600, workload="wisconsin",
        read_fraction=0.9,
    )
    pin(build_report(result))


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


def test_slow_read_path_is_pinned(monkeypatch, pin):
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
    pin(outcome)
