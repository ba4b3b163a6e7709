"""One site's in-memory database with staged (pre-commit) updates.

Phase one of the commit protocol ships copy updates that a participant must
hold without applying until the commit indication arrives (Appendix A:
"discard the copy updates" on abort).  ``stage`` / ``abort_staged`` model
exactly that buffer; at the commit point the participant discards its
staged entry and applies the writes through ``apply_writes``, the path the
coordinator's local commit also takes.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.errors import StorageError, UnknownItemError
from repro.storage.item import DataItem
from repro.storage.log import RedoLog


class SiteDatabase:
    """The replicated copies held by one site."""

    def __init__(self, site_id: int, item_ids: Iterable[int]) -> None:
        self.site_id = site_id
        # Built positionally through ``map``: this runs once per copy per
        # site build, the bulk of a cluster's construction.
        item_ids = tuple(item_ids)
        self._items: dict[int, DataItem] = dict(zip(item_ids, map(DataItem, item_ids)))
        self._staged: dict[int, list[tuple[int, int, int]]] = {}
        self.log = RedoLog()

    # -- reads -------------------------------------------------------------

    def __contains__(self, item_id: int) -> bool:
        return item_id in self._items

    def __len__(self) -> int:
        return len(self._items)

    @property
    def item_ids(self) -> list[int]:
        """Sorted ids of items this site holds a copy of."""
        return sorted(self._items)

    def get(self, item_id: int) -> DataItem:
        """The committed copy of ``item_id``."""
        try:
            return self._items[item_id]
        except KeyError:
            raise UnknownItemError(
                f"site {self.site_id} holds no copy of item {item_id}"
            ) from None

    def read(self, item_id: int) -> int:
        """Committed value of ``item_id``."""
        return self.get(item_id).value

    def version(self, item_id: int) -> int:
        """Committed version of ``item_id``."""
        return self.get(item_id).version

    # -- staged updates (two-phase commit) -----------------------------------

    def stage(self, txn_id: int, updates: Iterable[tuple[int, int, int]]) -> None:
        """Buffer ``(item_id, value, version)`` updates for ``txn_id``.

        Staging validates the items exist but touches nothing committed.
        """
        if txn_id in self._staged:
            raise StorageError(
                f"site {self.site_id}: txn {txn_id} already has staged updates"
            )
        updates = list(updates)
        for item_id, _value, _version in updates:
            if item_id not in self._items:
                raise UnknownItemError(
                    f"site {self.site_id} holds no copy of item {item_id}"
                )
        self._staged[txn_id] = updates

    def has_staged(self, txn_id: int) -> bool:
        """Whether ``txn_id`` has buffered updates on this site."""
        return txn_id in self._staged

    def abort_staged(self, txn_id: int) -> None:
        """Discard ``txn_id``'s buffered updates (no-op if none)."""
        self._staged.pop(txn_id, None)

    # -- direct writes (coordinator local commit, copier refresh) ----------

    def apply_writes(
        self,
        txn_id: int,
        updates: Iterable[tuple[int, int, int]],
        time: float,
    ) -> list[int]:
        """Apply committed ``(item_id, value, version)`` writes immediately
        (no staging), in order, to the copies this site holds.

        Under partial replication a transaction may write items this site
        holds no copy of; those are skipped.  Returns the ids applied.
        """
        items = self._items
        append = self.log.append
        applied = []
        for item_id, value, version in updates:
            item = items.get(item_id)
            if item is None:
                continue
            append(txn_id, item_id, item.value, value, item.version, version, time)
            item.value = value
            item.version = version
            item.committed_at = time
            applied.append(item_id)
        return applied

    def install_copy(
        self, item_id: int, value: int, version: int, time: float, source_txn: int = -1
    ) -> bool:
        """Install a copy fetched by a copier transaction.

        Refuses to go backwards: if the local copy is already at least as
        new, nothing changes.  Returns True if the copy was installed.
        """
        if self.get(item_id).version >= version:
            return False
        self.apply_writes(source_txn, ((item_id, value, version),), time)
        return True

    def create_item(self, item_id: int, value: int, version: int, time: float) -> None:
        """Materialize a brand-new copy (type-3 control transaction)."""
        if item_id in self._items:
            raise StorageError(
                f"site {self.site_id} already holds a copy of item {item_id}"
            )
        self._items[item_id] = DataItem(item_id, value, version, time)

    def drop_item(self, item_id: int) -> None:
        """Remove a copy (the cleanup cost the paper notes for type 3)."""
        if item_id not in self._items:
            raise UnknownItemError(
                f"site {self.site_id} holds no copy of item {item_id}"
            )
        del self._items[item_id]

    def drop_staged(self) -> None:
        """Lose every pre-commit buffer (a warm crash): committed copies
        survive, but the staging area is volatile memory."""
        self._staged.clear()

    def wipe(self) -> None:
        """Lose all volatile state (a cold crash): every copy reverts to
        the initial value/version, staged updates and the log are gone."""
        for item in self._items.values():
            item.value = 0
            item.version = 0
            item.committed_at = 0.0
        self._staged.clear()
        self.log = RedoLog(self.log.capacity)

    def dump(self) -> dict[int, tuple[int, int]]:
        """``{item_id: (value, version)}`` — for consistency audits."""
        return {i: (d.value, d.version) for i, d in self._items.items()}

    def signature(self) -> tuple:
        """Hashable snapshot of committed + staged state (``repro.check``).

        Excludes the redo log and commit timestamps: states that agree on
        every copy's (value, version) and on the staged buffers behave
        identically under the protocol regardless of when they got there.
        """
        return (
            tuple(
                (i, d.value, d.version)
                for i, d in sorted(self._items.items())
            ),
            tuple(
                (txn, tuple(updates))
                for txn, updates in sorted(self._staged.items())
            ),
        )

    def __repr__(self) -> str:
        return (
            f"SiteDatabase(site={self.site_id}, items={len(self._items)}, "
            f"staged_txns={len(self._staged)})"
        )
