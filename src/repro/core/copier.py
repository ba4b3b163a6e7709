"""Copier transactions (paper §1.1, §2.2.3).

A recovering site refreshes an out-of-date copy with a *copier
transaction*: read the good copy from an operational site, write it to the
local copy, clear the local fail-lock bit, and tell the other operational
sites — via a *special transaction* — which fail-lock bits were cleared.

The paper issues copiers *on demand*: when a database transaction at a
coordinating site contains a read of a fail-locked copy, the copier runs
before phase one of the commit protocol, and the whole database transaction
aborts if the copier cannot complete (no operational site has a good copy).
"""

from __future__ import annotations

from repro.core.faillocks import FailLockTable
from repro.core.rowaa import RowaaPlanner
from repro.storage.database import SiteDatabase


def choose_copier_source(
    planner: RowaaPlanner, item_ids: list[int], spread: bool = False
) -> dict[int, int]:
    """Pick an operational up-to-date source site for each item.

    Returns ``{item_id: site_id}``; an item maps to -1 when no operational
    site holds a current copy (the abort case).  Items are grouped so one
    request per source site suffices — mini-RAID batched multiple copier
    targets into one exchange where possible.

    With ``spread`` (the ``spread_copier_sources`` config flag), the donor
    is picked round-robin among *all* up-to-date sources by item id
    (``donors[item_id % len(donors)]``) instead of always the lowest —
    stateless, so replay determinism needs no extra counter in the site
    signature.  Default off: committed seeds elect the lowest donor.
    """
    donors_of = planner.donor_lookup()
    chosen: dict[int, int] = {}
    for item in item_ids:
        donors = donors_of(item)
        if not donors:
            chosen[item] = -1
        else:
            chosen[item] = donors[item % len(donors)] if spread else donors[0]
    return chosen


def build_copy_request(item_ids: list[int]) -> dict:
    """COPY_REQ payload."""
    return {"items": sorted(item_ids)}


def build_copy_response(db: SiteDatabase, item_ids: list[int]) -> dict:
    """COPY_RESP payload: the responder's committed copies."""
    return {"copies": db.snapshots(sorted(item_ids))}


def apply_copy_response(
    db: SiteDatabase,
    faillocks: FailLockTable,
    owner: int,
    copies: list[tuple[int, int, int]],
    time: float,
) -> list[int]:
    """Install fetched copies and clear the owner's fail-locks.

    Returns the item ids actually refreshed (a copy already newer locally is
    left alone but its fail-lock is still cleared — the copy is current).
    """
    refreshed = db.install_copies(copies, time)
    faillocks.clear_locks([item_id for item_id, _value, _version in copies], owner)
    return refreshed


def build_clear_notice(owner: int, item_ids: list[int]) -> dict:
    """CLEAR_FAILLOCKS payload for the special transaction that tells other
    sites which of ``owner``'s fail-locks the copier cleared."""
    return {"site": owner, "items": sorted(item_ids)}


def apply_clear_notice(faillocks: FailLockTable, payload: dict) -> int:
    """A peer clears the announced fail-lock bits; returns bits cleared."""
    return faillocks.clear_locks(payload["items"], payload["site"])
