"""ReplicationCatalog: full and partial replication bookkeeping."""

import pytest

from repro.errors import StorageError
from repro.storage.catalog import ReplicationCatalog


def test_fully_replicated():
    catalog = ReplicationCatalog.fully_replicated(range(3), range(4))
    assert catalog.is_fully_replicated()
    assert catalog.holders(0) == {0, 1, 2, 3}
    assert catalog.items_on(2) == [0, 1, 2]


def test_empty_catalog_not_full():
    catalog = ReplicationCatalog(range(2), range(2))
    assert not catalog.is_fully_replicated()
    assert catalog.holders(0) == set()


def test_add_and_remove_copy():
    catalog = ReplicationCatalog(range(2), range(3))
    catalog.add_copy(0, 1)
    catalog.add_copy(0, 2)
    assert catalog.holds(1, 0)
    catalog.remove_copy(0, 1)
    assert not catalog.holds(1, 0)
    assert catalog.holds(2, 0)


def test_cannot_remove_last_copy():
    catalog = ReplicationCatalog(range(1), range(2))
    catalog.add_copy(0, 0)
    with pytest.raises(StorageError):
        catalog.remove_copy(0, 0)


def test_remove_nonholder_rejected():
    catalog = ReplicationCatalog.fully_replicated(range(1), range(2))
    catalog2 = ReplicationCatalog(range(1), range(2))
    with pytest.raises(StorageError):
        catalog2.remove_copy(0, 1)


def test_add_unknown_site_rejected():
    catalog = ReplicationCatalog(range(1), range(2))
    with pytest.raises(StorageError):
        catalog.add_copy(0, 99)


def test_unknown_item_rejected():
    catalog = ReplicationCatalog(range(1), range(2))
    with pytest.raises(StorageError):
        catalog.holders(5)
    with pytest.raises(StorageError):
        catalog.holds(0, 5)


def test_holders_returns_copy():
    catalog = ReplicationCatalog.fully_replicated(range(1), range(2))
    holders = catalog.holders(0)
    holders.clear()
    assert catalog.holders(0) == {0, 1}


def test_items_on_returns_copy_of_its_cache():
    catalog = ReplicationCatalog.fully_replicated(range(3), range(2))
    catalog.items_on(1).clear()
    assert catalog.items_on(1) == [0, 1, 2]


def test_holds_all_follows_copy_changes():
    catalog = ReplicationCatalog(range(3), range(2))
    for item in range(3):
        catalog.add_copy(item, 0)
    catalog.add_copy(0, 1)
    assert catalog.holds_all(0, [2, 0, 1])
    assert not catalog.holds_all(1, [0, 1])  # fills site 1's cache
    assert catalog.holds_all(1, [])
    assert not catalog.holds_all(0, [0, 7])  # an unknown item is not held
    catalog.add_copy(1, 1)
    assert catalog.holds_all(1, [0, 1])
    catalog.remove_copy(1, 0)
    assert not catalog.holds_all(0, [0, 1])
    assert catalog.holds_all(0, [0, 2])


def test_copy_mutators_reject_unknown_items():
    catalog = ReplicationCatalog.fully_replicated(range(2), range(3))
    with pytest.raises(StorageError, match="unknown item 9"):
        catalog.add_copy(9, 0)
    with pytest.raises(StorageError, match="unknown item 9"):
        catalog.remove_copy(9, 0)
    assert catalog.is_fully_replicated()


def _view(catalog, sites, items):
    """Everything the catalog answers, item by item and site by site."""
    return (
        {item: catalog.holders(item) for item in items},
        {site: catalog.items_on(site) for site in sites},
        {site: catalog.holds_all(site, items) for site in sites},
        catalog.is_fully_replicated(),
    )


def test_type3_change_to_one_item_leaves_the_others_alone():
    sites, items = range(4), range(6)
    catalog = ReplicationCatalog.fully_replicated(items, sites)
    catalog.remove_copy(2, 1)
    holders, on, holds_all, full = _view(catalog, sites, items)
    assert holders == {i: ({0, 2, 3} if i == 2 else {0, 1, 2, 3}) for i in items}
    assert on[1] == [0, 1, 3, 4, 5] and on[0] == list(items)
    assert holds_all == {0: True, 1: False, 2: True, 3: True}
    assert not full
    catalog.add_copy(2, 1)
    assert _view(catalog, sites, items) == (
        {i: {0, 1, 2, 3} for i in items},
        {s: list(items) for s in sites},
        dict.fromkeys(sites, True),
        True,
    )


@pytest.mark.parametrize("seed", range(10))
def test_copy_on_write_matches_a_per_item_model(seed):
    """Random type-3 adds and removes, over a full catalog (one shared
    holder set) or a partial one, against plain per-item sets."""
    import random

    rng = random.Random(seed)
    sites, items = range(4), range(8)
    if seed % 2:
        catalog = ReplicationCatalog.fully_replicated(items, sites)
        model = {i: set(sites) for i in items}
    else:
        catalog = ReplicationCatalog(items, sites)
        model = {i: set() for i in items}
        for i in items:
            for s in rng.sample(sites, rng.randint(1, 4)):
                catalog.add_copy(i, s)
                model[i].add(s)
    for _ in range(40):
        item, site = rng.choice(items), rng.choice(sites)
        if site in model[item] and len(model[item]) > 1:
            catalog.remove_copy(item, site)
            model[item].discard(site)
        else:
            catalog.add_copy(item, site)
            model[item].add(site)
        assert _view(catalog, sites, items) == (
            model,
            {s: [i for i in items if s in model[i]] for s in sites},
            {s: all(s in model[i] for i in items) for s in sites},
            all(model[i] == set(sites) for i in items),
        )
        assert all(catalog.holds(s, i) == (s in model[i]) for i in items for s in sites)
