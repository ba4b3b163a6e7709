"""Read-one / write-all-available planning (paper §1.1).

ROWAA allows transaction processing as long as a single copy is available:
reads are served from one up-to-date copy (the coordinator's own, in
mini-RAID's fully replicated setting), and writes go to every *operational*
copy — a site known to be down is simply skipped, which "saves the time
that would be wasted in waiting for responses from an unavailable site".

The planner is pure: it inspects the coordinator's nominal session vector,
fail-lock table, and the replication catalog, and returns decisions; the
coordinator state machine executes them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from repro.core.faillocks import FailLockTable
from repro.core.sessions import NominalSessionVector
from repro.storage.catalog import ReplicationCatalog


class ReadSource(enum.Enum):
    """Where a read of an item can be satisfied."""

    LOCAL = "local"                  # own copy, up to date
    REMOTE = "remote"                # no local copy; read a peer's
    COPIER_NEEDED = "copier_needed"  # own copy exists but is fail-locked
    UNAVAILABLE = "unavailable"      # no reachable up-to-date copy anywhere


@dataclass(slots=True)
class ReadPlan:
    """The planner's decision for one read operation."""

    item_id: int
    source: ReadSource
    site_id: int = -1  # peer to read from / copier source, when applicable


class RowaaPlanner:
    """Plans reads and write sets for one coordinating site."""

    def __init__(
        self,
        owner: int,
        vector: NominalSessionVector,
        faillocks: FailLockTable,
        catalog: ReplicationCatalog,
    ) -> None:
        if vector.site_ids != faillocks.site_ids:
            # up_to_date_sources() intersects their bit masks.
            raise ValueError("session vector and fail-lock table disagree on sites")
        self.owner = owner
        self.vector = vector
        self.faillocks = faillocks
        self.catalog = catalog

    def up_to_date_sources(self, item_id: int, exclude_owner: bool = True) -> list[int]:
        """All operational sites holding a current copy of ``item_id``.

        Sorted ascending; empty when no donor exists.  Answered from bit
        masks — not fail-locked AND believed up — then filtered by the
        catalog's holder set.
        """
        current = self.faillocks.up_to_date_sites(
            item_id, among=self.vector.operational_mask()
        )
        holders = self.catalog.holders_view(item_id)
        return [
            site for site in current
            if site in holders and not (exclude_owner and site == self.owner)
        ]

    def up_to_date_source(self, item_id: int, exclude_owner: bool = True) -> int:
        """The lowest site of :meth:`up_to_date_sources`, or -1 if none —
        the situation that forces a transaction abort in the paper's
        scenario 1."""
        sources = self.up_to_date_sources(item_id, exclude_owner)
        return sources[0] if sources else -1

    def donor_lookup(self) -> Callable[[int], list[int]]:
        """:meth:`up_to_date_sources` for one planning pass, asked once
        per class of items that share a fail-lock mask and a holder set.

        The answer depends on nothing else while the pass runs, and every
        stale item of a cold-crashed site is in one class under full
        replication.  Items are classed through ``faillocks.mask`` and
        ``catalog.holders_view``, so an unknown item raises as before.
        Items of one class share the returned list: do not change it.
        """
        mask = self.faillocks.mask
        holders = self.catalog.holders_view
        sources = self.up_to_date_sources
        known: dict[tuple[int, frozenset[int]], list[int]] = {}

        def donors(item_id: int) -> list[int]:
            key = (mask(item_id), holders(item_id))
            found = known.get(key)
            if found is None:
                found = known[key] = sources(item_id)
            return found

        return donors

    def plan_read(self, item_id: int) -> ReadPlan:
        """Decide how a read of ``item_id`` at the owner is satisfied."""
        if self.catalog.holds(self.owner, item_id):
            if not self.faillocks.is_locked(item_id, self.owner):
                return ReadPlan(item_id=item_id, source=ReadSource.LOCAL)
            source = self.up_to_date_source(item_id)
            if source < 0:
                return ReadPlan(item_id=item_id, source=ReadSource.UNAVAILABLE)
            return ReadPlan(item_id=item_id, source=ReadSource.COPIER_NEEDED, site_id=source)
        source = self.up_to_date_source(item_id)
        if source < 0:
            return ReadPlan(item_id=item_id, source=ReadSource.UNAVAILABLE)
        return ReadPlan(item_id=item_id, source=ReadSource.REMOTE, site_id=source)

    def plan_reads(self, item_ids: list[int]) -> list[ReadPlan]:
        """The reads of one transaction that need more than the local copy.

        :meth:`plan_read` of each item in order, less the LOCAL plans, and
        ending at the first UNAVAILABLE one (the transaction aborts there).
        In the steady state — the owner holds every item and none of its
        copies is fail-locked — every read is LOCAL, which the stale index
        and the catalog answer in one step each.
        """
        owner = self.owner
        if not self.faillocks.count_for(owner) and self.catalog.holds_all(
            owner, item_ids
        ):
            return []
        plans = []
        for item in item_ids:
            plan = self.plan_read(item)
            if plan.source is not ReadSource.LOCAL:
                plans.append(plan)
                if plan.source is ReadSource.UNAVAILABLE:
                    break
        return plans

    def write_sites(self, item_id: int) -> list[int]:
        """All operational sites holding a copy of ``item_id`` (sorted).

        This is ROWAA's "write all available": the coordinator updates every
        copy it believes reachable, and fail-locks cover the rest.
        """
        holders = self.catalog.holders_view(item_id)
        return [s for s in self.vector.up_sites() if s in holders]

    def participants_for(self, written_items: list[int]) -> list[int]:
        """Operational peers that must receive phase-1 copy updates."""
        holders: set[int] = set()
        for item in written_items:
            holders |= self.catalog.holders_view(item)
        owner = self.owner
        return [s for s in self.vector.up_sites() if s in holders and s != owner]
