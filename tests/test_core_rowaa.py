"""RowaaPlanner: read plans and write sets."""

import random

import pytest

from repro.core.faillocks import FailLockTable
from repro.core.rowaa import ReadPlan, ReadSource, RowaaPlanner
from repro.core.sessions import NominalSessionVector
from repro.errors import StorageError
from repro.storage.catalog import ReplicationCatalog


@pytest.fixture
def parts():
    sites = [0, 1, 2]
    items = list(range(4))
    nsv = NominalSessionVector(owner=0, site_ids=sites)
    locks = FailLockTable(site_ids=sites, item_ids=items)
    catalog = ReplicationCatalog.fully_replicated(items, sites)
    planner = RowaaPlanner(0, nsv, locks, catalog)
    return nsv, locks, catalog, planner


def test_local_read_when_clean(parts):
    _nsv, _locks, _cat, planner = parts
    plan = planner.plan_read(1)
    assert plan.source is ReadSource.LOCAL


def test_copier_needed_when_locally_locked(parts):
    _nsv, locks, _cat, planner = parts
    locks.set_lock(1, 0)
    plan = planner.plan_read(1)
    assert plan.source is ReadSource.COPIER_NEEDED
    assert plan.site_id == 1  # lowest up-to-date operational peer


def test_copier_source_skips_locked_peers(parts):
    _nsv, locks, _cat, planner = parts
    locks.set_lock(1, 0)
    locks.set_lock(1, 1)
    assert planner.plan_read(1).site_id == 2


def test_unavailable_when_no_good_copy_reachable(parts):
    nsv, locks, _cat, planner = parts
    locks.set_lock(1, 0)
    locks.set_lock(1, 1)
    nsv.mark_down(2)
    assert planner.plan_read(1).source is ReadSource.UNAVAILABLE


def test_unavailable_when_all_others_down(parts):
    nsv, locks, _cat, planner = parts
    locks.set_lock(1, 0)
    nsv.mark_down(1)
    nsv.mark_down(2)
    assert planner.plan_read(1).source is ReadSource.UNAVAILABLE


def test_remote_read_without_local_copy():
    sites = [0, 1]
    items = [0]
    nsv = NominalSessionVector(owner=0, site_ids=sites)
    locks = FailLockTable(site_ids=sites, item_ids=items)
    catalog = ReplicationCatalog(items, sites)
    catalog.add_copy(0, 1)  # only site 1 holds item 0
    planner = RowaaPlanner(0, nsv, locks, catalog)
    plan = planner.plan_read(0)
    assert plan.source is ReadSource.REMOTE
    assert plan.site_id == 1


def test_write_sites_excludes_down(parts):
    nsv, _locks, _cat, planner = parts
    nsv.mark_down(1)
    assert planner.write_sites(2) == [0, 2]


def test_participants_for_writes(parts):
    nsv, _locks, _cat, planner = parts
    nsv.mark_down(2)
    assert planner.participants_for([0, 1]) == [1]


def test_participants_empty_when_alone(parts):
    nsv, _locks, _cat, planner = parts
    nsv.mark_down(1)
    nsv.mark_down(2)
    assert planner.participants_for([0]) == []


def test_up_to_date_source_is_never_the_owner(parts):
    _nsv, _locks, _cat, planner = parts
    assert planner.up_to_date_sources(0) == [1, 2]  # site 0 holds a current copy too
    assert planner.up_to_date_source(0) == 1


# -- plan_reads: one call per transaction, against plan_read as reference ------


def _reference_plans(planner, items):
    """``plan_read`` of every item, LOCAL dropped, cut after the first
    UNAVAILABLE — what the coordinator consumed item by item."""
    remote = [
        plan for plan in (planner.plan_read(item) for item in items)
        if plan.source is not ReadSource.LOCAL
    ]
    for index, plan in enumerate(remote):
        if plan.source is ReadSource.UNAVAILABLE:
            return remote[: index + 1]
    return remote


def _random_state(rng):
    """A planner over a random session vector, fail-lock table and
    (possibly partial) catalog."""
    sites = list(range(rng.randint(2, 5)))
    items = list(range(rng.randint(1, 12)))
    owner = rng.choice(sites)
    nsv = NominalSessionVector(owner=owner, site_ids=sites)
    for site in sites:
        state = rng.choice(["up", "up", "down", "recovering"])
        if state == "down":
            nsv.mark_down(site)
        elif state == "recovering" and site == owner:
            nsv.begin_new_session()
        elif state == "recovering":
            nsv.install([(site, 2, "waiting_to_recover")])
    locks = FailLockTable(site_ids=sites, item_ids=items)
    if rng.random() < 0.5:
        catalog = ReplicationCatalog.fully_replicated(items, sites)
    else:
        catalog = ReplicationCatalog(items, sites)
        for item in items:
            for site in rng.sample(sites, rng.randint(1, len(sites))):
                catalog.add_copy(item, site)
    # The owner has no stale copy about half the time, else a few; peers
    # get a random sprinkling.
    if rng.random() < 0.5:
        locks.set_locks(rng.sample(items, rng.randint(1, len(items))), owner)
    for site in sites:
        if site != owner:
            locks.set_locks(rng.sample(items, rng.randint(0, len(items))), site)
    return RowaaPlanner(owner, nsv, locks, catalog), sites, items


def _type3(rng, catalog, sites, items):
    """One type-3 create or drop of a backup copy, when one is possible."""
    item = rng.choice(items)
    holders = catalog.holders(item)
    if rng.random() < 0.5 and len(holders) < len(sites):
        catalog.add_copy(item, rng.choice(sorted(set(sites) - holders)))
    elif len(holders) > 1:
        catalog.remove_copy(item, rng.choice(sorted(holders)))


def test_plan_reads_equals_plan_read_in_random_states():
    rng = random.Random(2027)
    all_local = 0
    sources = set()
    for _ in range(400):
        planner, sites, items = _random_state(rng)
        for _step in range(4):
            reads = rng.sample(items, rng.randint(0, len(items)))
            plans = planner.plan_reads(reads)
            assert plans == _reference_plans(planner, reads)
            all_local += not plans
            sources.update(plan.source for plan in plans)
            # The catalog caches each site's items; a type-3 change must
            # reach the next plan.
            _type3(rng, planner.catalog, sites, items)
    assert all_local > 400
    assert sources == {ReadSource.REMOTE, ReadSource.COPIER_NEEDED, ReadSource.UNAVAILABLE}


def test_plan_reads_steady_state_makes_no_per_item_plans(parts, monkeypatch):
    _nsv, _locks, _cat, planner = parts

    def per_item(item_id):
        raise AssertionError(f"plan_read({item_id}) in the steady state")

    monkeypatch.setattr(planner, "plan_read", per_item)
    assert planner.plan_reads([3, 0, 2]) == []


def test_plan_reads_stops_at_the_first_unavailable(parts):
    nsv, locks, _cat, planner = parts
    locks.set_locks([1, 2], 0)
    locks.set_lock(2, 1)
    nsv.mark_down(2)
    assert planner.plan_reads([0, 1, 2, 3]) == [
        ReadPlan(item_id=1, source=ReadSource.COPIER_NEEDED, site_id=1),
        ReadPlan(item_id=2, source=ReadSource.UNAVAILABLE),
    ]
    # Items past the abort are never planned, so an unknown one is moot.
    assert planner.plan_reads([2, 99])[-1].source is ReadSource.UNAVAILABLE


@pytest.mark.parametrize("stale", [False, True])
def test_plan_reads_unknown_item_raises_like_plan_read(parts, stale):
    _nsv, locks, _cat, planner = parts
    if stale:
        locks.set_lock(3, 0)  # the per-item path
    with pytest.raises(StorageError):
        planner.plan_read(99)
    with pytest.raises(StorageError):
        planner.plan_reads([0, 99])
