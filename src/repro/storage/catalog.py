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
    """Directory mapping item ids to the sites holding a copy."""

    def __init__(self, item_ids: Iterable[int], site_ids: Iterable[int]) -> None:
        self.site_ids = sorted(site_ids)
        self._holders: dict[int, set[int]] = {item: set() for item in item_ids}
        # site -> the items it holds no copy of; built on first ask,
        # dropped by the copy mutators (every site is built from it, every
        # cold recovery announce asks again, and every transaction's reads
        # are planned against it).  Empty under full replication, so it
        # costs no memory in the paper's configuration.
        self._lacking: dict[int, frozenset[int]] = {}

    @classmethod
    def fully_replicated(
        cls, item_ids: Iterable[int], site_ids: Iterable[int]
    ) -> "ReplicationCatalog":
        """Every site holds every item (the paper's configuration)."""
        catalog = cls(item_ids, site_ids)
        for item in catalog._holders:
            catalog._holders[item] = set(catalog.site_ids)
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

    def holders_view(self, item_id: int) -> set[int]:
        """The live holder set for ``item_id`` — treat as read-only.

        Hot-path variant of :meth:`holders` without the defensive copy.
        """
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
        return sorted(self._holders.keys() - self._lacks(site_id))

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
        self._holders[item_id].add(site_id)
        self._lacking.pop(site_id, None)

    def remove_copy(self, item_id: int, site_id: int) -> None:
        """Record removal of a copy."""
        holders = self._holders[item_id]
        if site_id not in holders:
            raise StorageError(f"site {site_id} holds no copy of item {item_id}")
        if len(holders) == 1:
            raise StorageError(f"refusing to remove the last copy of item {item_id}")
        holders.remove(site_id)
        self._lacking.pop(site_id, None)

    def is_fully_replicated(self) -> bool:
        """True if every site holds every item."""
        full = set(self.site_ids)
        return all(holders == full for holders in self._holders.values())

    def __repr__(self) -> str:
        return (
            f"ReplicationCatalog(items={len(self._holders)}, "
            f"sites={len(self.site_ids)}, full={self.is_fully_replicated()})"
        )
