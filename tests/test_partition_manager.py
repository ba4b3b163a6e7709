"""PartitionManager edge cases: overlap rejection, re-partition, implicit
group membership."""

import pytest

from repro.errors import NetworkError
from repro.net.partition import PartitionManager


def test_overlapping_groups_rejected() -> None:
    manager = PartitionManager()
    with pytest.raises(NetworkError):
        manager.partition([[0, 1], [1, 2]])


def test_overlap_rejection_leaves_manager_unpartitioned() -> None:
    manager = PartitionManager()
    with pytest.raises(NetworkError):
        manager.partition([[0], [0]])
    assert all(manager.connected(a, b) for a in range(4) for b in range(4))


def test_heal_then_repartition() -> None:
    manager = PartitionManager()
    manager.partition([[0, 1], [2, 3]])
    assert manager.connected(0, 1)
    assert not manager.connected(1, 2)
    manager.heal()
    assert all(manager.connected(a, b) for a in range(4) for b in range(4))
    # A fresh split takes effect cleanly after the heal.
    manager.partition([[0, 2], [1, 3]])
    assert manager.connected(0, 2)
    assert not manager.connected(0, 1)
    assert not manager.connected(2, 3)


def test_repartition_replaces_previous_split() -> None:
    """Installing a new partition discards the old one entirely."""
    manager = PartitionManager()
    manager.partition([[0], [1, 2]])
    manager.partition([[0, 1], [2]])
    assert manager.connected(0, 1)   # separated before, together now
    assert not manager.connected(1, 2)


def test_unlisted_sites_share_the_implicit_group() -> None:
    manager = PartitionManager()
    manager.partition([[0, 1]])
    # Sites 2 and 3 appear in no group: they form the implicit extra group.
    assert manager.connected(2, 3)
    # ...but are cut off from every listed group.
    assert not manager.connected(0, 2)
    assert not manager.connected(1, 3)


def test_self_connectivity_survives_any_split() -> None:
    manager = PartitionManager()
    manager.partition([[0], [1]])
    assert manager.connected(0, 0)
    assert manager.connected(1, 1)
    assert manager.connected(5, 5)   # even unlisted sites reach themselves
