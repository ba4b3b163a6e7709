"""Replicated-copy-control strategies: one object per discipline.

The paper's introduction sets its protocol, read-one/write-all-available
(ROWAA), against strict read-one/write-all and quorum consensus [Bern84]
[ElAb85]; the cluster runs all three.  Each object states once when a
transaction may proceed, as a predicate on how many of ``num_sites`` sites
are up.  The coordinator enforces exactly those predicates, and they give
the closed-form availability when each site is independently up w.p. ``p``.
"""

from __future__ import annotations

import abc
import enum
import math
from typing import Callable, Optional

from repro.errors import ConfigurationError
from repro.txn.transaction import AbortReason


class CopyControlStrategy(enum.Enum):
    """Replicated-copy-control strategy run by the cluster."""

    ROWAA = "rowaa"     # the paper's protocol
    ROWA = "rowa"       # strict read-one/write-ALL: any down site blocks writes
    QUORUM = "quorum"   # majority quorum consensus (El Abbadi et al. family)


class CopyControl(abc.ABC):
    """One strategy over ``num_sites`` copies of every item."""

    # Abort reason for a refused transaction; None if a live coordinator
    # never refuses one (it then need not count the up sites at all).
    refusal: Optional[AbortReason] = None
    # Reads settled by version votes: every operational peer votes and the
    # read set rides in the VOTE_REQ (no fail-locks or copiers).
    votes_on_reads = False

    def __init__(self, num_sites: int) -> None:
        self.num_sites = num_sites

    @abc.abstractmethod
    def can_read(self, up: int) -> bool:
        """Whether a read can proceed with ``up`` sites operational."""

    @abc.abstractmethod
    def can_write(self, up: int) -> bool:
        """Whether a write can proceed with ``up`` sites operational."""

    def read_availability(self, p: float) -> float:
        """P(read proceeds) when each site is independently up w.p. ``p``."""
        return self._availability(p, self.can_read)

    def write_availability(self, p: float) -> float:
        """P(write proceeds) when each site is independently up w.p. ``p``."""
        return self._availability(p, self.can_write)

    def _availability(self, p: float, proceeds: Callable[[int], bool]) -> float:
        if not 0.0 <= p <= 1.0:
            raise ConfigurationError(f"probability must be in [0, 1]: {p}")
        n = self.num_sites
        return sum(
            math.comb(n, k) * p**k * (1 - p) ** (n - k)
            for k in range(n + 1)
            if proceeds(k)
        )


class RowaaStrategy(CopyControl):
    """Read-one / write-all-available, the paper's protocol: processing
    continues "as long as a single copy is available" (§1.1)."""

    def can_read(self, up: int) -> bool:
        return up >= 1

    def can_write(self, up: int) -> bool:
        return up >= 1


class RowaStrategy(CopyControl):
    """Strict read-one / write-ALL: a single down site blocks every write."""

    refusal = AbortReason.WRITE_ALL_BLOCKED

    def can_read(self, up: int) -> bool:
        return up >= 1

    def can_write(self, up: int) -> bool:
        return up == self.num_sites


class QuorumStrategy(CopyControl):
    """Majority quorum consensus: any two majorities intersect, so version
    votes find the newest copy; a minority partition can do nothing."""

    refusal = AbortReason.QUORUM_UNAVAILABLE
    votes_on_reads = True

    def can_read(self, up: int) -> bool:
        return up > self.num_sites // 2

    def can_write(self, up: int) -> bool:
        return up > self.num_sites // 2


COPY_CONTROL: dict[CopyControlStrategy, type[CopyControl]] = {
    CopyControlStrategy.ROWAA: RowaaStrategy,
    CopyControlStrategy.ROWA: RowaStrategy,
    CopyControlStrategy.QUORUM: QuorumStrategy,
}
