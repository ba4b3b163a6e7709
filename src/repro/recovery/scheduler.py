"""The parallel copier scheduler behind ``RecoveryPolicy.PARALLEL``.

Where two-step recovery (§3.2) keeps a single outstanding batch copier,
this scheduler partitions the recovering site's remaining stale items
across *all* up-to-date donors (:func:`repro.recovery.plan_partitions`)
and keeps one bounded-size batch in flight per donor.  Donor-side CPU in
the :class:`~repro.system.costs.CostModel` is what then limits throughput:
with enough cores, each donor formats its COPY_RESP concurrently and
recovery time is governed by the largest shard, not the whole stale set.

Incremental catch-up is structural rather than event-driven: ``pump()``
plans from the *current* stale set and donor picture every time it runs
(at recovery start, after every commit that cleared locks, after every
batch response, after a donor bounce or denial), so shards shrink as
transaction writes refresh copies, and work re-routes when a donor fails
mid-recovery.  That is cheap because nothing is scanned: the stale set
comes from the fail-lock table's per-site index, and the planner stops
as soon as every free donor holds the one batch this round can send it
(see "Planning cost" in docs/RECOVERY.md).

Determinism: no RNG, no wall-clock; everything derives from the site's
protocol state.  The only scheduler-private state is the denied-donor set
for the current recovery epoch, exposed via :meth:`signature` so
``repro.check`` fingerprints cover it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.recovery import OnDemandRecovery
from repro.recovery.partition import plan_partitions

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import HandlerContext
    from repro.site.site import DatabaseSite


class ParallelCopierScheduler(OnDemandRecovery):
    """Fan-out batch-copier policy for one recovering site.

    Owned by a :class:`~repro.site.site.DatabaseSite` whose configured
    recovery policy is PARALLEL.  It plans against the site's
    ``_batch_pending`` in-flight map, which the site's one send loop fills,
    so the response/denial/bounce plumbing (and the site signature) sees
    parallel shards exactly like two-step batches.
    """

    __slots__ = ("_denied", "_epoch")

    def __init__(self, site: "DatabaseSite") -> None:
        super().__init__(site)
        # Donors that answered COPY_DENIED this recovery epoch: our
        # fail-lock view said they were current but theirs disagreed.
        # Excluded from re-planning until the next epoch so a stale view
        # cannot produce an infinite request/deny loop.
        self._denied: set[int] = set()
        self._epoch: float = -1.0

    def crash_reset(self) -> None:
        """The owning site crashed: scheduler state is volatile."""
        self._denied.clear()
        self._epoch = -1.0

    def note_denied(self, donor: int) -> bool:
        """Exclude a denying donor for this epoch; re-plan its shard at once."""
        self._denied.add(donor)
        return True

    def pump(self, ctx: "HandlerContext") -> dict[int, list[int]]:
        """(Re-)plan one batch for every free donor.

        Safe to call at any point; plans nothing unless the site is in a
        recovery period with stale items not already in flight.  A plan
        charges ``recovery_plan_cost`` before the site sends it.
        """
        site = self.site
        recovery = site.recovery
        if not recovery.in_recovery:
            return {}
        if self._epoch != recovery.stats.started_at:
            # New recovery period: denials from the previous epoch are
            # stale knowledge (the donor may have recovered since).
            self._epoch = recovery.stats.started_at
            self._denied.clear()
        pending = site._batch_pending
        in_flight: set[int] = set()
        for items in pending.values():
            in_flight.update(items)
        remaining = [i for i in recovery.stale_items() if i not in in_flight]
        if not remaining:
            return {}
        fanout = site.config.recovery_fanout
        slots = 0
        if fanout > 0:
            slots = fanout - len(pending)
            if slots <= 0:
                return {}
        shards = plan_partitions(
            site.planner,
            remaining,
            exclude=set(pending) | self._denied,
            max_donors=slots,
            batch_size=recovery.batch_size,
        )
        if shards:
            ctx.charge(site.costs.recovery_plan_cost)
        return shards

    def signature(self) -> tuple:
        """Scheduler-private protocol-visible state (``repro.check``)."""
        return ((tuple(sorted(self._denied)), self._epoch != -1.0),)

    def __repr__(self) -> str:
        return (
            f"ParallelCopierScheduler(site={self.site.site_id}, "
            f"denied={sorted(self._denied)})"
        )
