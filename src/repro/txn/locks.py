"""Strict two-phase locking (the "complete RAID" extension).

Mini-RAID deliberately factored concurrency control out (paper assumption
2); the authors planned to re-introduce it when running the protocol in the
complete RAID system.  This lock manager supplies that substrate: shared /
exclusive item locks, FIFO queueing with the standard compatibility matrix,
and release-all-at-commit (strictness).  The concurrent cluster mode and
the deadlock detector build on it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class LockMode(enum.Enum):
    """Shared (read) or exclusive (write)."""

    SHARED = "S"
    EXCLUSIVE = "X"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(slots=True)
class _LockEntry:
    """The grant set and wait queue for one item."""

    holders: dict[int, LockMode] = field(default_factory=dict)
    queue: list[tuple[int, LockMode]] = field(default_factory=list)


@dataclass(slots=True, frozen=True)
class LockGrant:
    """Result of a lock request."""

    granted: bool
    # Transactions the requester now waits for (empty when granted).
    waiting_for: tuple[int, ...] = ()


# Grants carry no per-request state, and LockGrant is frozen, so every
# successful request can share one instance instead of allocating.
_GRANTED = LockGrant(granted=True)

# Bound once: reading a member off an Enum class runs Python-level code.
_SHARED = LockMode.SHARED
_EXCLUSIVE = LockMode.EXCLUSIVE


class LockManager:
    """Item-granularity S/X lock table for one site."""

    __slots__ = ("_table", "_touched")

    def __init__(self) -> None:
        self._table: dict[int, _LockEntry] = {}
        # txn -> items it holds or queues on.  Invariant: a transaction in
        # any entry's holders or queue has that item in its touched set, so
        # release_all visits only those entries instead of the whole table.
        self._touched: dict[int, set[int]] = {}

    def held_mode(self, txn_id: int, item_id: int) -> LockMode | None:
        """The mode ``txn_id`` holds on ``item_id``, or ``None``."""
        entry = self._table.get(item_id)
        return entry.holders.get(txn_id) if entry is not None else None

    def signature(self) -> tuple:
        """Hashable snapshot of every non-empty entry (``repro.check``).

        Holders are sorted (the grant *set* has no order); the wait queue
        keeps its FIFO order, which is protocol-visible.
        """
        return tuple(
            (
                item,
                tuple(sorted((t, m.value) for t, m in entry.holders.items())),
                tuple((t, m.value) for t, m in entry.queue),
            )
            for item, entry in sorted(self._table.items())
            if entry.holders or entry.queue
        )

    def shareable(self, txn_id: int, requests: list[tuple[int, LockMode]]) -> bool:
        """Whether ``requests`` are all SHARED and :meth:`request` would
        grant each of them at once, as fresh requests: ``txn_id`` holds
        and waits for nothing here, and no item has an X holder or a
        queue.  Reads the table only."""
        if txn_id in self._touched:
            return False
        table = self._table
        for item_id, mode in requests:
            if mode is not _SHARED:
                return False
            entry = table.get(item_id)
            if entry is not None and (
                entry.queue or _EXCLUSIVE in entry.holders.values()
            ):
                return False
        return True

    def request(self, txn_id: int, item_id: int, mode: LockMode) -> LockGrant:
        """Request ``mode`` on ``item_id`` for ``txn_id``.

        Re-requests are idempotent; S→X upgrade succeeds only when the
        requester is the sole holder, otherwise it queues.  A queued request
        returns the holder set it waits for (feeding the waits-for graph).
        """
        table = self._table
        entry = table.get(item_id)
        if entry is None:
            entry = table[item_id] = _LockEntry()
        holders = entry.holders
        held = holders.get(txn_id)
        if held is mode or held is _EXCLUSIVE:
            return _GRANTED
        if held is _SHARED and mode is _EXCLUSIVE:
            if len(holders) == 1:
                holders[txn_id] = _EXCLUSIVE
                return _GRANTED
            blockers = tuple(t for t in holders if t != txn_id)
            entry.queue.append((txn_id, mode))
            return LockGrant(granted=False, waiting_for=blockers)
        # Fresh request: grant if compatible with every holder and nobody
        # is already queued (queue-jumping would starve writers).  The
        # S/X matrix reduces to identity checks: only S+S coexist.
        touched = self._touched.get(txn_id)
        if touched is None:
            touched = self._touched[txn_id] = set()
        touched.add(item_id)
        if not entry.queue and (
            not holders
            or (mode is _SHARED and all(m is _SHARED for m in holders.values()))
        ):
            holders[txn_id] = mode
            return _GRANTED
        blockers = tuple(holders) + tuple(t for t, _m in entry.queue)
        entry.queue.append((txn_id, mode))
        return LockGrant(granted=False, waiting_for=blockers)

    def release_all(self, txn_id: int) -> dict[int, list[int]]:
        """Release every lock ``txn_id`` holds or waits for (strict 2PL).

        Returns ``{item_id: [txn_ids granted by this release]}`` so the
        caller can resume the newly unblocked transactions.
        """
        granted: dict[int, list[int]] = {}
        touched = self._touched.pop(txn_id, None)
        if not touched:
            return granted
        # Only entries the transaction touched can have changed; untouched
        # queues were already non-grantable and stay that way (requests
        # only ever add holders or queue tails, which never unblock a
        # queue head — promotion happens exclusively here).
        table = self._table
        for item_id in sorted(touched):
            entry = table[item_id]
            entry.holders.pop(txn_id, None)
            if entry.queue:
                entry.queue[:] = [(t, m) for t, m in entry.queue if t != txn_id]
            newly = self._promote(entry)
            if newly:
                granted[item_id] = newly
        return granted

    def _promote(self, entry: _LockEntry) -> list[int]:
        """Grant queued requests now compatible, in FIFO order."""
        newly: list[int] = []
        holders = entry.holders
        while entry.queue:
            txn_id, mode = entry.queue[0]
            held = holders.get(txn_id)
            if held is _SHARED and mode is _EXCLUSIVE:
                # Upgrade waits for sole ownership.
                if len(holders) != 1:
                    break
                holders[txn_id] = _EXCLUSIVE
            else:
                if holders and not (
                    mode is _SHARED and all(m is _SHARED for m in holders.values())
                ):
                    break
                holders[txn_id] = mode
            entry.queue.pop(0)
            newly.append(txn_id)
            if mode is _EXCLUSIVE:
                break
        return newly

    def __repr__(self) -> str:
        held = sum(len(e.holders) for e in self._table.values())
        queued = sum(len(e.queue) for e in self._table.values())
        return f"LockManager(held={held}, queued={queued})"
