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
