"""Cluster-wide logical commit clock.

Copy versions must identify the newest copy of an item (copier installs,
quorum reads, and the consistency audit all compare them).  A version is
therefore drawn from a single monotone logical clock *at the commit point*:
conflicting writers are serialized by the protocol (serial execution in
mini-RAID; strict 2PL in the concurrent extension), so commit-point
stamping makes versions per-item monotone in serialization order — even
when a blind write refreshes a fail-locked copy whose history the writer
never saw.

Mini-RAID itself needed no versions (fail-locks carry the staleness
information); the clock is reproduction-side bookkeeping that makes the
consistency audits checkable.
"""

from __future__ import annotations


class LogicalClock:
    """A monotone counter; ``tick()`` returns the next timestamp."""

    __slots__ = ("_now",)

    def __init__(self, start: int = 0) -> None:
        self._now = start

    def tick(self) -> int:
        """Advance and return a fresh timestamp."""
        self._now += 1
        return self._now

    def __repr__(self) -> str:
        return f"LogicalClock(now={self._now})"
