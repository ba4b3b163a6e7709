"""Replication catalog: which sites hold which items.

The paper assumes full replication (assumption 4) but sketches, in §3.2, a
type-3 control transaction for *partially* replicated databases where a
back-up copy is created on a site that had none.  The catalog is the shared
directory both cases consult.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import StorageError


class ReplicationCatalog:
    """Directory mapping item ids to the sites holding a copy.

    Each item maps to a ``frozenset`` of holders, and items with the same
    holders may share one: under full replication every item shares the
    set of all sites.  ``add_copy`` / ``remove_copy`` therefore replace an
    item's set rather than change it, so a type-3 copy of one item leaves
    every other item's holders as they were.
    """

    def __init__(self, item_ids: Iterable[int], site_ids: Iterable[int]) -> None:
        self.site_ids = sorted(site_ids)
        self._holders: dict[int, frozenset[int]] = dict.fromkeys(item_ids, frozenset())
        # site -> the items it holds no copy of; built on first ask,
        # dropped by the copy mutators (every site is built from it, every
        # cold recovery announce asks again, and every transaction's reads
        # are planned against it).  Known empty from the start under full
        # replication.
        self._lacking: dict[int, frozenset[int]] = {}

    @classmethod
    def fully_replicated(
        cls, item_ids: Iterable[int], site_ids: Iterable[int]
    ) -> "ReplicationCatalog":
        """Every site holds every item (the paper's configuration)."""
        catalog = cls(item_ids, site_ids)
        everyone = frozenset(catalog.site_ids)
        catalog._holders = dict.fromkeys(catalog._holders, everyone)
        catalog._lacking = dict.fromkeys(catalog.site_ids, frozenset())
        return catalog

    @property
    def item_ids(self) -> list[int]:
        """All logical item ids, sorted."""
        return sorted(self._holders)

    def holders(self, item_id: int) -> set[int]:
        """Sites that hold a copy of ``item_id`` (a fresh set)."""
        try:
            return set(self._holders[item_id])
        except KeyError:
            raise StorageError(f"unknown item {item_id}") from None

    def holders_view(self, item_id: int) -> frozenset[int]:
        """The holder set for ``item_id`` itself, possibly shared with
        other items — the hot-path variant of :meth:`holders`."""
        try:
            return self._holders[item_id]
        except KeyError:
            raise StorageError(f"unknown item {item_id}") from None

    def holds(self, site_id: int, item_id: int) -> bool:
        """Whether ``site_id`` holds a copy of ``item_id``."""
        try:
            return site_id in self._holders[item_id]
        except KeyError:
            raise StorageError(f"unknown item {item_id}") from None

    def items_on(self, site_id: int) -> list[int]:
        """All items a site holds, sorted (a fresh list)."""
        lacks = self._lacks(site_id)
        return sorted(self._holders.keys() - lacks if lacks else self._holders)

    def holds_all(self, site_id: int, item_ids: list[int]) -> bool:
        """Whether ``site_id`` holds a copy of every item in ``item_ids``
        (False if any of them is unknown here)."""
        return all(map(self._holders.__contains__, item_ids)) and self._lacks(
            site_id
        ).isdisjoint(item_ids)

    def _lacks(self, site_id: int) -> frozenset[int]:
        lacks = self._lacking.get(site_id)
        if lacks is None:
            lacks = self._lacking[site_id] = frozenset(
                [i for i, sites in self._holders.items() if site_id not in sites]
            )
        return lacks

    def add_copy(self, item_id: int, site_id: int) -> None:
        """Record a new copy (type-3 control transaction)."""
        if site_id not in self.site_ids:
            raise StorageError(f"unknown site {site_id}")
        self._holders[item_id] = self.holders_view(item_id) | {site_id}
        self._lacking.pop(site_id, None)

    def remove_copy(self, item_id: int, site_id: int) -> None:
        """Record removal of a copy."""
        holders = self.holders_view(item_id)
        if site_id not in holders:
            raise StorageError(f"site {site_id} holds no copy of item {item_id}")
        if len(holders) == 1:
            raise StorageError(f"refusing to remove the last copy of item {item_id}")
        self._holders[item_id] = holders - {site_id}
        self._lacking.pop(site_id, None)

    def is_fully_replicated(self) -> bool:
        """True if every site holds every item."""
        full = frozenset(self.site_ids)
        return all(holders == full for holders in self._holders.values())

    def __repr__(self) -> str:
        return (
            f"ReplicationCatalog(items={len(self._holders)}, "
            f"sites={len(self.site_ids)}, full={self.is_fully_replicated()})"
        )
