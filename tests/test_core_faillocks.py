"""FailLockTable: the bit-map semantics of §1.1/§1.2."""

import pytest

from repro.core.faillocks import FailLockTable
from repro.errors import FailLockError


@pytest.fixture
def table() -> FailLockTable:
    return FailLockTable(site_ids=[0, 1, 2, 3], item_ids=range(5))


def test_initially_unlocked(table):
    assert table.total_locks() == 0
    assert not table.is_locked(0, 0)
    assert table.count_for(2) == 0


def test_set_and_clear(table):
    table.set_lock(3, 2)
    assert table.is_locked(3, 2)
    assert not table.is_locked(3, 1)
    table.clear_lock(3, 2)
    assert not table.is_locked(3, 2)


def test_set_is_idempotent(table):
    table.set_lock(1, 1)
    table.set_lock(1, 1)
    assert table.count_for(1) == 1


def test_clear_unset_is_noop(table):
    table.clear_lock(0, 0)
    assert table.total_locks() == 0


def test_locked_items_for(table):
    table.set_lock(4, 1)
    table.set_lock(2, 1)
    table.set_lock(2, 3)
    assert table.locked_items_for(1) == [2, 4]
    assert table.locked_items_for(3) == [2]
    assert table.count_for(1) == 2


def test_up_to_date_sites(table):
    table.set_lock(2, 1)
    assert table.up_to_date_sites(2) == [0, 2, 3]


def test_mask_is_bitmap(table):
    table.set_lock(0, 0)
    table.set_lock(0, 2)
    assert table.mask(0) == 0b0101


def test_unknown_item_and_site(table):
    with pytest.raises(FailLockError):
        table.set_lock(99, 0)
    with pytest.raises(FailLockError):
        table.set_lock(0, 99)


def test_snapshot_and_install(table):
    table.set_lock(1, 2)
    other = FailLockTable(site_ids=[0, 1, 2, 3], item_ids=range(5))
    other.set_lock(4, 0)  # will be overwritten by install
    other.install(table.snapshot())
    assert other == table
    assert not other.is_locked(4, 0)


def test_install_rejects_unknown_items(table):
    other = FailLockTable(site_ids=[0, 1], item_ids=range(2))
    with pytest.raises(FailLockError):
        table.install(other.snapshot() | {77: 1})


def test_merge_is_union(table):
    other = FailLockTable(site_ids=[0, 1, 2, 3], item_ids=range(5))
    table.set_lock(0, 1)
    other.set_lock(0, 2)
    table.merge(other.snapshot())
    assert table.is_locked(0, 1)
    assert table.is_locked(0, 2)


def test_add_item(table):
    table.add_item(50)
    table.set_lock(50, 0)
    assert table.is_locked(50, 0)
    with pytest.raises(FailLockError):
        table.add_item(50)


def test_total_locks_counts_bits(table):
    table.set_lock(0, 0)
    table.set_lock(0, 1)
    table.set_lock(3, 2)
    assert table.total_locks() == 3


def test_update_with_recipients_exact_sets(table):
    table.set_lock(1, 0)  # stale knowledge: will be overwritten exactly
    ops = table.update_with_recipients({1: [0, 2]})
    assert ops == 4
    assert not table.is_locked(1, 0)
    assert table.is_locked(1, 1)
    assert not table.is_locked(1, 2)
    assert table.is_locked(1, 3)


def test_update_with_recipients_multiple_items(table):
    table.update_with_recipients({0: [0, 1, 2, 3], 2: [3]})
    assert table.mask(0) == 0
    assert table.up_to_date_sites(2) == [3]


def test_update_with_recipients_validates_item(table):
    with pytest.raises(FailLockError):
        table.update_with_recipients({99: [0]})


# -- the per-site stale index ----------------------------------------------------


def _assert_index_matches_scan(table):
    """count_for / locked_items_for / total_locks vs a scan of snapshot()."""
    masks = table.snapshot()
    for index, site in enumerate(table.site_ids):
        scanned = sorted(item for item, mask in masks.items() if mask >> index & 1)
        assert table.locked_items_for(site) == scanned
        assert table.count_for(site) == len(scanned)
    assert table.total_locks() == sum(mask.bit_count() for mask in masks.values())


@pytest.mark.parametrize("seed", range(6))
def test_index_matches_brute_force_scan_under_every_mutator(seed):
    import random

    from repro.chaos.runner import NeuteredFailLockTable

    rng = random.Random(seed)
    sites = [0, 1, 2, 5, 7]  # gaps: a bit index is not a site id
    items = list(range(24))
    table = FailLockTable(sites, items)
    peer = FailLockTable(sites, items)

    def some_items():
        return rng.sample(items, rng.randint(1, 6))

    def some_items_or_none():
        # repeats and the empty list are both legal bulk inputs
        return [rng.choice(items) for _ in range(rng.randint(0, 6))]

    def step(target):
        op = rng.randrange(9)
        if op == 0:
            target.set_lock(rng.choice(items), rng.choice(sites))
        elif op == 1:
            target.clear_lock(rng.choice(items), rng.choice(sites))
        elif op == 2:
            target.update_with_recipients(
                {i: rng.sample(sites, rng.randint(0, len(sites))) for i in some_items()}
            )
        elif op == 3 and target is table:
            table.install(peer.snapshot())
        elif op == 4 and target is table:
            table.merge(peer.snapshot())
        elif op == 5:
            new_item = len(items)
            items.append(new_item)
            table.add_item(new_item)
            peer.add_item(new_item)
        elif op == 6 and target is table:
            # chaos mutation mode swaps the class of a live table, both ways
            table.__class__ = (
                FailLockTable if type(table) is NeuteredFailLockTable
                else NeuteredFailLockTable
            )
        elif op == 7:
            target.set_locks(some_items_or_none(), rng.choice(sites))
        elif op == 8:
            site = rng.choice(sites)
            chosen = some_items_or_none()
            was = sum(target.is_locked(item, site) for item in set(chosen))
            assert target.clear_locks(chosen, site) == was

    for _ in range(400):
        step(rng.choice((table, table, peer)))
        _assert_index_matches_scan(table)
        _assert_index_matches_scan(peer)


def test_bulk_mutators_match_the_per_bit_ones(table):
    bulk = FailLockTable(site_ids=[0, 1, 2, 3], item_ids=range(5))
    for item in (3, 1, 3, 4):
        table.set_lock(item, 2)
    bulk.set_locks([3, 1, 3, 4], 2)  # a repeat sets its bit once
    assert bulk == table
    assert bulk.locked_items_for(2) == [1, 3, 4]
    bulk.set_locks([1], 2)  # already set: no change
    bulk.set_locks([], 2)
    assert bulk == table
    assert bulk.count_for(2) == 3


def test_clear_locks_counts_bits_that_were_set(table):
    table.set_locks([0, 2, 4], 1)
    table.set_lock(2, 3)
    # 2 and 4 were set; 1 was already clear; 4 repeats; site 3 untouched
    assert table.clear_locks([2, 1, 4, 4], 1) == 2
    assert table.locked_items_for(1) == [0]
    assert table.is_locked(2, 3)
    assert table.clear_locks([2, 4], 1) == 0
    assert table.clear_locks([], 1) == 0
    _assert_index_matches_scan(table)


@pytest.mark.parametrize("mutator", ["set_locks", "clear_locks"])
def test_bulk_mutators_reject_unknown_items_before_any_change(table, mutator):
    table.set_locks([0, 1], 2)
    before = (table.snapshot(), table.locked_items_for(2), table.count_for(2))
    with pytest.raises(FailLockError, match="unknown item 99"):
        getattr(table, mutator)([3, 0, 99, 1], 2)
    assert (table.snapshot(), table.locked_items_for(2), table.count_for(2)) == before
    with pytest.raises(FailLockError, match="unknown site"):
        getattr(table, mutator)([0], 9)


def test_locked_items_for_excludes_by_set_difference(table):
    table.set_locks([4, 0, 2, 3], 1)
    assert table.locked_items_for(1, {2, 7}) == [0, 3, 4]
    assert table.locked_items_for(1, ()) == [0, 2, 3, 4]


def test_index_is_not_part_of_identity(table):
    other = FailLockTable(site_ids=[0, 1, 2, 3], item_ids=range(5))
    # Same masks reached by different histories: equal, same signature.
    table.set_lock(2, 1)
    other.update_with_recipients({2: [0, 2, 3]})
    other.set_lock(4, 0)
    other.clear_lock(4, 0)
    assert other == table
    assert other.signature() == table.signature() == ((2, 0b0010),)
    assert table.snapshot() == {0: 0, 1: 0, 2: 0b0010, 3: 0, 4: 0}


def test_install_and_merge_reject_bits_of_unknown_sites(table):
    with pytest.raises(FailLockError):
        table.install({0: 1 << 4})
    with pytest.raises(FailLockError):
        table.merge({0: 1 << 4})
    assert table.total_locks() == 0


def test_item_count_and_tracks(table):
    assert table.item_count == 5
    assert table.tracks(4) and not table.tracks(5)
    table.add_item(5)
    assert table.item_count == 6 and table.tracks(5)


def test_up_to_date_sites_among_mask(table):
    table.set_lock(2, 1)
    assert table.up_to_date_sites(2, among=0b1010) == [3]
