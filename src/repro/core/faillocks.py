"""Fail-locks: the out-of-date marker for replicated copies (paper §1.1).

Each data item carries one fail-lock bit per site.  Bit ``k`` set on item
``x`` means: *site k's copy of x missed an update while k was unavailable*.
Operational sites set the bit on behalf of the failed site during commit;
the bit is cleared when the copy is refreshed — by a transaction write
reaching the site, or by a copier transaction.

The paper implements the table as a bit map per data item sized by the
number of sites, "allowing the fail-lock operations to be performed very
quickly" — we keep exactly that representation (a Python int used as a bit
mask per item).

Recovery asks the transposed question — *which items are stale for site k?*
— once per batch, so the table also keeps, per site, the set of items whose
bit is set.  Every mask mutator moves the item between those sets for
exactly the bits it changed (``set_locks`` / ``clear_locks`` by one set
update per call, the multi-bit writers through
:meth:`FailLockTable._store`), so ``count_for`` is O(1) and
``locked_items_for`` touches only that site's stale items.
The index is derived state: it is not part of ``snapshot()``,
``signature()`` or ``==``.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import FailLockError


class FailLockTable:
    """Fail-lock bit maps for every data item, as kept by one site."""

    __slots__ = ("site_ids", "_bit_of", "_masks", "_stale")

    def __init__(self, site_ids: Iterable[int], item_ids: Iterable[int]) -> None:
        self.site_ids = sorted(site_ids)
        # Bit k belongs to the k-th site in sorted order; NominalSessionVector
        # lays out operational_mask() the same way.
        self._bit_of = {site: 1 << index for index, site in enumerate(self.site_ids)}
        self._masks: dict[int, int] = dict.fromkeys(item_ids, 0)
        # bit -> items whose mask has that bit set (the per-site stale index)
        self._stale: dict[int, set[int]] = {bit: set() for bit in self._bit_of.values()}

    # -- bit bookkeeping -----------------------------------------------------

    def _bit(self, site_id: int) -> int:
        try:
            return self._bit_of[site_id]
        except KeyError:
            raise FailLockError(f"unknown site {site_id}") from None

    def _mask(self, item_id: int) -> int:
        try:
            return self._masks[item_id]
        except KeyError:
            raise FailLockError(f"unknown item {item_id}") from None

    def _store(self, item_id: int, old: int, new: int) -> None:
        """Replace ``item_id``'s mask ``old`` by ``new`` and re-index it.

        Callers skip it when nothing changed, so the steady state (no
        failures) never reaches here.
        """
        self._masks[item_id] = new
        changed = old ^ new
        while changed:
            bit = changed & -changed
            changed ^= bit
            if new & bit:
                self._stale[bit].add(item_id)
            else:
                self._stale[bit].discard(item_id)

    @property
    def item_count(self) -> int:
        """Number of items tracked."""
        return len(self._masks)

    def tracks(self, item_id: int) -> bool:
        """Whether ``item_id`` has a fail-lock bit map here."""
        return item_id in self._masks

    def add_item(self, item_id: int) -> None:
        """Track a new item (type-3 control transaction support)."""
        if item_id in self._masks:
            raise FailLockError(f"item {item_id} already tracked")
        self._masks[item_id] = 0

    # -- one site's bit ---------------------------------------------------------

    def set_lock(self, item_id: int, site_id: int) -> None:
        """Mark ``site_id``'s copy of ``item_id`` out-of-date."""
        self.set_locks((item_id,), site_id)

    def clear_lock(self, item_id: int, site_id: int) -> None:
        """Mark ``site_id``'s copy of ``item_id`` refreshed."""
        self.clear_locks((item_id,), site_id)

    def set_locks(self, item_ids: Iterable[int], site_id: int) -> None:
        """Mark ``site_id``'s copies of every item in ``item_ids`` out-of-date.

        All items are checked before any bit changes, so an unknown item
        leaves the table untouched.
        """
        bit = self._bit(site_id)
        masks = self._masks
        items = self._known(item_ids)
        for item in items:
            masks[item] |= bit
        self._stale[bit].update(items)

    def clear_locks(self, item_ids: Iterable[int], site_id: int) -> int:
        """Mark ``site_id``'s copies of ``item_ids`` refreshed; returns how
        many bits were set before (duplicates count once)."""
        bit = self._bit(site_id)
        masks = self._masks
        items = self._known(item_ids)
        stale = self._stale[bit]
        before = len(stale)
        clear = ~bit
        for item in items:
            masks[item] &= clear
        stale.difference_update(items)
        return before - len(stale)

    def _known(self, item_ids: Iterable[int]) -> set[int]:
        """``item_ids`` as a set, every one tracked here."""
        items = set(item_ids)
        if not items <= self._masks.keys():
            raise FailLockError(f"unknown item {min(items - self._masks.keys())}")
        return items

    def is_locked(self, item_id: int, site_id: int) -> bool:
        """Whether ``site_id``'s copy of ``item_id`` is out-of-date."""
        try:
            return bool(self._masks[item_id] & self._bit_of[site_id])
        except KeyError:
            self._mask(item_id)
            self._bit(site_id)
            raise  # pragma: no cover - one of the two raised above

    def mask(self, item_id: int) -> int:
        """The raw bit mask for ``item_id``."""
        return self._mask(item_id)

    def signature(self) -> tuple:
        """Hashable snapshot of all *set* fail-locks (``repro.check``).

        Items with a zero mask are omitted so tables that track different
        (but all-clear) item sets compare equal.
        """
        return tuple(
            (item, mask) for item, mask in sorted(self._masks.items()) if mask
        )

    # -- commit-time maintenance (paper §1.2) -----------------------------------

    def update_with_recipients(
        self, recipients_of: dict[int, Iterable[int]]
    ) -> int:
        """Commit maintenance from the *actual* update recipients.

        ``recipients_of[item]`` is the set of sites that received this
        commit's update for ``item`` (the coordinator's write-all-available
        set).  A recipient's copy is now current — clear its bit; every
        other site missed the update — set its bit.

        This is the exact form of the paper's §1.2 rule: examining the
        nominal session vector is equivalent *when the vector is accurate*,
        but a participant whose vector is stale (timeout detection, message
        races) would wrongly re-clear a down site's bit.  Deriving the
        clears from the recipient set closes that hole.

        Returns the number of bit operations performed.
        """
        count = 0
        sites = len(self.site_ids)
        all_mask = (1 << sites) - 1
        masks = self._masks
        bit_of = self._bit_of
        for item, recipients in recipients_of.items():
            if item not in masks:
                self._mask(item)  # raises with the right message
            recipient_mask = 0
            for site in recipients:
                recipient_mask |= bit_of[site] if site in bit_of else self._bit(site)
            # The written value is now THE copy: exactly the non-recipients
            # are stale, whatever the previous mask said.
            old = masks[item]
            new = all_mask & ~recipient_mask
            if new != old:
                self._store(item, old, new)
            count += sites
        return count

    # -- recovery-side queries ----------------------------------------------------

    def locked_items_for(self, site_id: int, exclude: Iterable[int] = ()) -> list[int]:
        """Items whose copy on ``site_id`` is out-of-date, sorted, less
        ``exclude`` (a set difference on the index, not a filtered scan)."""
        stale = self._stale[self._bit(site_id)]
        return sorted(stale.difference(exclude) if exclude else stale)

    def count_for(self, site_id: int) -> int:
        """Number of out-of-date copies on ``site_id``."""
        return len(self._stale[self._bit(site_id)])

    def total_locks(self) -> int:
        """Total set bits across all items (system-wide inconsistency)."""
        return sum(len(items) for items in self._stale.values())

    def up_to_date_sites(self, item_id: int, among: int = -1) -> list[int]:
        """Sites whose copy of ``item_id`` is current, sorted.

        ``among`` restricts the answer to the sites of a bit mask in this
        table's layout (``NominalSessionVector.operational_mask()``).
        """
        mask = among & ~self._mask(item_id)
        return [site for site, bit in self._bit_of.items() if mask & bit]

    # -- replication of the table itself ---------------------------------------

    def snapshot(self) -> dict[int, int]:
        """``{item_id: mask}`` — what a type-1 reply ships."""
        return dict(self._masks)

    def install(self, masks: dict[int, int]) -> None:
        """Adopt a peer's table wholesale (type-1 install).

        The recovering site has been away; the peer's table is strictly
        better informed, so this replaces rather than merges.
        """
        self._check_peer_masks(masks)
        for item, mask in masks.items():
            old = self._masks[item]
            if mask != old:
                self._store(item, old, mask)

    def merge(self, masks: dict[int, int]) -> None:
        """OR a peer's table into this one (conservative union)."""
        self._check_peer_masks(masks)
        for item, mask in masks.items():
            old = self._masks[item]
            if mask & ~old:
                self._store(item, old, old | mask)

    def _check_peer_masks(self, masks: dict[int, int]) -> None:
        """Reject a peer table naming items or sites this one does not
        track, before any of it is applied."""
        sites = len(self.site_ids)
        for item, mask in masks.items():
            if item not in self._masks:
                raise FailLockError(f"unknown item {item} in peer table")
            if mask < 0 or mask >> sites:
                raise FailLockError(f"item {item}: mask {mask:#b} names unknown sites")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FailLockTable):
            return NotImplemented
        return self.site_ids == other.site_ids and self._masks == other._masks

    def __repr__(self) -> str:
        return (
            f"FailLockTable(sites={len(self.site_ids)}, items={len(self._masks)}, "
            f"locks={self.total_locks()})"
        )
