"""Recovery management, including the paper's proposed two-step recovery.

After a type-1 control transaction completes, a site is operational but
some of its copies are fail-locked.  The *recovery period* lasts until the
last of its fail-locks clears.  The paper observes (Experiment 2) that the
clearing rate is proportional to the fraction of items still locked — the
first 10 locks cleared in 6 transactions, the last 10 took 106 — and
proposes a two-step scheme (§3.2): refresh on demand while many items are
locked, then switch to issuing *batch* copier transactions once the locked
fraction drops below a threshold, hastening the tail.

:class:`RecoveryManager` tracks one site's recovery period.  Each
:class:`RecoveryPolicy` is one object deciding which batch copiers to send:
:class:`OnDemandRecovery`, :class:`TwoStepRecovery` and
``repro.recovery.scheduler.ParallelCopierScheduler``.
"""

from __future__ import annotations

import enum
from dataclasses import replace
from typing import Callable, Iterable, Optional, TYPE_CHECKING

from repro.core.copier import choose_copier_source
from repro.core.faillocks import FailLockTable
from repro.metrics.records import RecoveryPeriodRecord

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.net.endpoint import HandlerContext
    from repro.site.site import DatabaseSite


class RecoveryPolicy(enum.Enum):
    """How a recovering site refreshes its out-of-date copies."""

    ON_DEMAND = "on_demand"    # the paper's measured implementation
    TWO_STEP = "two_step"      # §3.2 proposal: batch copiers below threshold
    PARALLEL = "parallel"      # repro.recovery: partitioned multi-donor fan-out


class RecoveryManager:
    """Tracks the recovery period of one site."""

    def __init__(
        self,
        owner: int,
        faillocks: FailLockTable,
        policy: RecoveryPolicy = RecoveryPolicy.ON_DEMAND,
        batch_threshold: float = 0.2,
        batch_size: int = 5,
    ) -> None:
        if not 0.0 <= batch_threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1]: {batch_threshold}")
        if batch_size < 1:
            raise ValueError(f"batch size must be positive: {batch_size}")
        self.owner = owner
        self.faillocks = faillocks
        self.policy = policy
        self.batch_threshold = batch_threshold
        self.batch_size = batch_size
        self.in_recovery = False
        # The current (or last) period's record.  It keeps counting after
        # its period closes: copiers and refreshes arrive either way.
        self.stats = RecoveryPeriodRecord(owner, policy.value)
        # Fired when a period ends, with a copy of its record; the copy is
        # ``interrupted`` when the site failed and re-recovered before the
        # period completed (a flapping site).  The site wires it to metrics.
        self.on_period_end: Optional[Callable[[RecoveryPeriodRecord], None]] = None
        self._period_open = False

    # -- lifecycle ---------------------------------------------------------

    def begin(self, time: float) -> None:
        """Called when the type-1 control transaction completes."""
        if self._period_open and self.on_period_end is not None:
            # The previous period never completed: the site flapped.
            self.on_period_end(replace(self.stats, interrupted=True))
        self.in_recovery = True
        self._period_open = True
        self.stats = RecoveryPeriodRecord(
            self.owner,
            self.policy.value,
            started_at=time,
            initial_stale=self.faillocks.count_for(self.owner),
        )
        # A site that comes back with nothing stale is instantly recovered.
        self._check_complete(time)

    @property
    def stale_count(self) -> int:
        """Out-of-date copies remaining on the owner."""
        return self.faillocks.count_for(self.owner)

    def stale_fraction(self) -> float:
        """Fraction of all items still fail-locked for the owner."""
        total = self.faillocks.item_count
        if total == 0:
            return 0.0
        return self.stale_count / total

    def stale_items(self, exclude: Iterable[int] = ()) -> list[int]:
        """The owner's out-of-date items, sorted, less ``exclude``."""
        return self.faillocks.locked_items_for(self.owner, exclude)

    # -- progress notifications ------------------------------------------------

    def note_refreshed_by_write(self, count: int, time: float) -> None:
        """``count`` stale copies were refreshed by transaction writes."""
        self.stats.refreshed_by_write += count
        self._check_complete(time)

    def note_refreshed_by_copier(self, count: int, time: float) -> None:
        """``count`` stale copies were refreshed by copier transactions."""
        self.stats.refreshed_by_copier += count
        self._check_complete(time)

    def note_copier_request(self, batch: bool = False) -> None:
        """A copier exchange was issued (on demand or batch)."""
        self.stats.copier_requests += 1
        if batch:
            self.stats.batch_copier_requests += 1

    def _check_complete(self, time: float) -> None:
        if self.in_recovery and self.stale_count == 0:
            self.in_recovery = False
            self.stats.finished_at = time
            self._period_open = False
            if self.on_period_end is not None:
                self.on_period_end(replace(self.stats))

    def __repr__(self) -> str:
        phase = "recovering" if self.in_recovery else "steady"
        return (
            f"RecoveryManager(site={self.owner}, {phase}, "
            f"stale={self.stale_count}, policy={self.policy.value})"
        )


class OnDemandRecovery:
    """The paper's measured policy: stale copies refresh only by writes and
    by the copiers reads demand.  The other policies add batch copiers."""

    __slots__ = ("site",)

    def __init__(self, site: "DatabaseSite") -> None:
        self.site = site

    def pump(self, ctx: "HandlerContext") -> dict[int, list[int]]:
        """The batch copiers to send now, ``{donor: items}``."""
        return {}

    def note_denied(self, donor: int) -> bool:
        """A batch COPY_REQ to ``donor`` came back COPY_DENIED; returns
        whether to re-plan at once."""
        return False

    def crash_reset(self) -> None:
        """The owning site crashed: drop volatile policy state."""

    def in_flight(self) -> set[int]:
        """Items the site's outstanding batch copiers already cover."""
        items: set[int] = set()
        for batch in self.site._batch_pending.values():
            items.update(batch)
        return items

    def signature(self) -> tuple:
        """What the policy appends to the site's signature (``repro.check``):
        empty unless it keeps protocol-visible state of its own."""
        return ()


class TwoStepRecovery(OnDemandRecovery):
    """The §3.2 proposal: once the stale fraction is at or below the
    threshold, one batch copier in flight."""

    __slots__ = ()

    def wants_batch_copier(self) -> bool:
        """Whether the recovery period has reached step two."""
        recovery = self.site.recovery
        return (
            recovery.in_recovery
            and recovery.stale_count > 0
            and recovery.stale_fraction() <= recovery.batch_threshold
        )

    def next_batch(self) -> list[int]:
        """The next ``batch_size`` stale items not already in flight."""
        recovery = self.site.recovery
        return recovery.stale_items(self.in_flight())[: recovery.batch_size]

    def pump(self, ctx: "HandlerContext") -> dict[int, list[int]]:
        site = self.site
        if site._batch_pending or not self.wants_batch_copier():
            return {}
        items = self.next_batch()
        sources = choose_copier_source(
            site.planner, items, spread=site.config.spread_copier_sources
        )
        by_source: dict[int, list[int]] = {}
        for item in items:
            source = sources[item]
            if source >= 0:
                by_source.setdefault(source, []).append(item)
        return by_source
