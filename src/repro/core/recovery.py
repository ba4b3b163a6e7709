"""Recovery management, including the paper's proposed two-step recovery.

After a type-1 control transaction completes, a site is operational but
some of its copies are fail-locked.  The *recovery period* lasts until the
last of its fail-locks clears.  The paper observes (Experiment 2) that the
clearing rate is proportional to the fraction of items still locked — the
first 10 locks cleared in 6 transactions, the last 10 took 106 — and
proposes a two-step scheme (§3.2): refresh on demand while many items are
locked, then switch to issuing *batch* copier transactions once the locked
fraction drops below a threshold, hastening the tail.

:class:`RecoveryManager` tracks one site's recovery period and implements
both the paper's measured on-demand policy and the proposed two-step
policy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.faillocks import FailLockTable


class RecoveryPolicy(enum.Enum):
    """How a recovering site refreshes its out-of-date copies."""

    ON_DEMAND = "on_demand"    # the paper's measured implementation
    TWO_STEP = "two_step"      # §3.2 proposal: batch copiers below threshold
    PARALLEL = "parallel"      # repro.recovery: partitioned multi-donor fan-out


@dataclass(slots=True)
class RecoveryStats:
    """Bookkeeping for one recovery period."""

    started_at: float = 0.0
    finished_at: float = -1.0
    initial_stale: int = 0
    copier_requests: int = 0
    batch_copier_requests: int = 0
    refreshed_by_write: int = 0
    refreshed_by_copier: int = 0

    @property
    def complete(self) -> bool:
        return self.finished_at >= 0.0


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
        self.stats = RecoveryStats()
        # Fired when a recovery period ends: ``(stats, interrupted)``.
        # ``interrupted`` is True when a new period began (the site failed
        # again and re-recovered) before the previous one completed — the
        # flapping-site case.  None by default; metrics wiring sets it.
        self.on_period_end: Optional[Callable[[RecoveryStats, bool], None]] = None
        self._period_open = False

    # -- lifecycle ---------------------------------------------------------

    def begin(self, time: float) -> None:
        """Called when the type-1 control transaction completes."""
        if self._period_open and self.on_period_end is not None:
            # The previous period never completed: the site flapped.
            self.on_period_end(self.stats, True)
        self.in_recovery = True
        self._period_open = True
        self.stats = RecoveryStats(
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

    def stale_items(self) -> list[int]:
        """The owner's out-of-date items, sorted."""
        return self.faillocks.locked_items_for(self.owner)

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
                self.on_period_end(self.stats, False)

    # -- the two-step policy (§3.2) --------------------------------------------

    def wants_batch_copier(self) -> bool:
        """Whether proactive batch copiers should be issued now.

        TWO_STEP waits until the stale fraction drops below the threshold
        (§3.2's step two); PARALLEL wants them for the whole recovery
        period — the parallel scheduler partitions the stale set across
        donors from the first instant.
        """
        if not self.in_recovery or self.stale_count == 0:
            return False
        if self.policy is RecoveryPolicy.PARALLEL:
            return True
        if self.policy is not RecoveryPolicy.TWO_STEP:
            return False
        return self.stale_fraction() <= self.batch_threshold

    def next_batch(self) -> list[int]:
        """The next ``batch_size`` stale items to refresh proactively."""
        return self.stale_items()[: self.batch_size]

    def __repr__(self) -> str:
        phase = "recovering" if self.in_recovery else "steady"
        return (
            f"RecoveryManager(site={self.owner}, {phase}, "
            f"stale={self.stale_count}, policy={self.policy.value})"
        )
