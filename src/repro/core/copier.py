"""Copier transactions (paper §1.1, §2.2.3).

A recovering site refreshes an out-of-date copy with a *copier
transaction*: read the good copy from an operational site, write it to the
local copy, clear the local fail-lock bit, and tell the other operational
sites — via a *special transaction* — which fail-lock bits were cleared.

The paper issues copiers *on demand*: when a database transaction at a
coordinating site contains a read of a fail-locked copy, the copier runs
before phase one of the commit protocol, and the whole database transaction
aborts if the copier cannot complete (no operational site has a good copy).
The sites build and read the exchange's messages; this module picks the
site to copy from.
"""

from __future__ import annotations

from repro.core.rowaa import RowaaPlanner


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

