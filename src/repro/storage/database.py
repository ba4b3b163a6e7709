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
    """The replicated copies held by one site.

    A copy becomes a :class:`DataItem` only when it is first written
    (:meth:`apply_writes`, :meth:`install_copies`, :meth:`create_item`).
    Until then it reads as value 0, version 0, committed at 0.0 — the
    state every copy starts in — and nothing that only reads it (``read``,
    ``version``, ``get``, ``snapshots``, ``signature``) stores
    one, so a cluster build costs one id per copy, not one object.
    """

    def __init__(self, site_id: int, item_ids: Iterable[int]) -> None:
        self.site_id = site_id
        # Every id this site holds a copy of; ``_items`` has the copies
        # written so far.
        self._held: dict[int, None] = dict.fromkeys(item_ids)
        self._items: dict[int, DataItem] = {}
        self._staged: dict[int, list[tuple[int, int, int]]] = {}
        self.log = RedoLog()
        # Cached signature() (None = stale): every method that changes a
        # copy, the held set or the staged buffers drops it.
        self._signature: Optional[tuple] = None

    def _unknown(self, item_id: int) -> UnknownItemError:
        return UnknownItemError(f"site {self.site_id} holds no copy of item {item_id}")

    def _written(self, item_id: int) -> Optional[DataItem]:
        """The copy's object, or None for a held copy never written."""
        item = self._items.get(item_id)
        if item is None and item_id not in self._held:
            raise self._unknown(item_id)
        return item

    # -- reads -------------------------------------------------------------

    def __contains__(self, item_id: int) -> bool:
        return item_id in self._held

    def __len__(self) -> int:
        return len(self._held)

    def get(self, item_id: int) -> DataItem:
        """The committed copy of ``item_id`` (a fresh, unstored default
        for a copy never written) — to read: a change made through it
        would bypass the cached :meth:`signature`."""
        item = self._written(item_id)
        return DataItem(item_id) if item is None else item

    def read(self, item_id: int) -> int:
        """Committed value of ``item_id``."""
        item = self._written(item_id)
        return 0 if item is None else item.value

    def version(self, item_id: int) -> int:
        """Committed version of ``item_id``."""
        item = self._written(item_id)
        return 0 if item is None else item.version

    def snapshots(self, item_ids: Iterable[int]) -> list[tuple[int, int, int]]:
        """``(item_id, value, version)`` of each copy, in order — what a
        COPY_RESP or a quorum vote ships."""
        shipped = []
        for item_id in item_ids:
            item = self._written(item_id)
            shipped.append(
                (item_id, 0, 0) if item is None else (item_id, item.value, item.version)
            )
        return shipped

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
            if item_id not in self._held:
                raise self._unknown(item_id)
        self._staged[txn_id] = updates
        self._signature = None

    def abort_staged(self, txn_id: int) -> None:
        """Discard ``txn_id``'s buffered updates (no-op if none)."""
        if self._staged.pop(txn_id, None) is not None:
            self._signature = None

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
        held = self._held
        append = self.log.append
        applied = []
        for item_id, value, version in updates:
            item = items.get(item_id)
            if item is None:
                if item_id not in held:
                    continue
                append(txn_id, item_id, 0, value, 0, version, time)
                items[item_id] = DataItem(item_id, value, version)
            else:
                append(txn_id, item_id, item.value, value, item.version, version, time)
                item.value = value
                item.version = version
            applied.append(item_id)
        if applied:
            self._signature = None
        return applied

    def install_copies(
        self, copies: Iterable[tuple[int, int, int]], time: float, source_txn: int = -1
    ) -> list[int]:
        """Install ``(item_id, value, version)`` copies fetched by a copier
        transaction, each naming a distinct item held here.

        Refuses to go backwards: a copy whose local version is already at
        least as new is left alone.  Every item is checked before anything
        is written.  Returns the ids installed, in order.
        """
        newer = []
        for copy in copies:
            item = self._written(copy[0])
            if copy[2] > (0 if item is None else item.version):
                newer.append(copy)
        return self.apply_writes(source_txn, newer, time)

    def install_copy(
        self, item_id: int, value: int, version: int, time: float, source_txn: int = -1
    ) -> bool:
        """:meth:`install_copies` of one copy; True if it was installed."""
        return bool(self.install_copies(((item_id, value, version),), time, source_txn))

    def create_item(self, item_id: int, value: int, version: int) -> None:
        """Materialize a brand-new copy (type-3 control transaction)."""
        if item_id in self._held:
            raise StorageError(
                f"site {self.site_id} already holds a copy of item {item_id}"
            )
        self._held[item_id] = None
        self._items[item_id] = DataItem(item_id, value, version)
        self._signature = None

    def drop_item(self, item_id: int) -> None:
        """Remove a copy (the cleanup cost the paper notes for type 3)."""
        if item_id not in self._held:
            raise self._unknown(item_id)
        del self._held[item_id]
        self._items.pop(item_id, None)
        self._signature = None

    def drop_staged(self) -> None:
        """Lose every pre-commit buffer (a warm crash): committed copies
        survive, but the staging area is volatile memory."""
        self._staged.clear()
        self._signature = None

    def wipe(self) -> None:
        """Lose all volatile state (a cold crash): every copy reverts to
        the initial value/version, staged updates and the log are gone."""
        self._items.clear()
        self._staged.clear()
        self.log = RedoLog(self.log.capacity)
        self._signature = None

    def signature(self) -> tuple:
        """Hashable snapshot of committed + staged state (``repro.check``).

        Excludes the redo log and commit timestamps: states that agree on
        every copy's (value, version) and on the staged buffers behave
        identically under the protocol regardless of when they got there.
        Kept until a mutator drops it.
        """
        signature = self._signature
        if signature is None:
            items = self._items
            signature = self._signature = (
                tuple(
                    (i, 0, 0) if (d := items.get(i)) is None else (i, d.value, d.version)
                    for i in sorted(self._held)
                ),
                tuple(
                    (txn, tuple(updates))
                    for txn, updates in sorted(self._staged.items())
                ),
            )
        return signature

    def __repr__(self) -> str:
        return (
            f"SiteDatabase(site={self.site_id}, items={len(self._held)}, "
            f"staged_txns={len(self._staged)})"
        )
