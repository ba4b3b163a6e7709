"""Measurement record types.

One row per measured thing, in the vocabulary of the paper's experiments:
transaction timings split by coordinator/participant role (Experiment 1),
control transaction durations by type and role (Experiment 1), copier
exchanges (Experiments 1 and 2), and per-transaction fail-lock samples (the
series plotted in Figures 1–3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.txn.transaction import AbortReason

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.net.message import Message

# ``AbortReason(value)`` goes through the enum metaclass' call on every
# settled transaction; a plain lookup by value answers the same member.
_REASON_BY_VALUE = {reason.value: reason for reason in AbortReason}


@dataclass(slots=True)
class TxnRecord:
    """Outcome and timing of one database transaction."""

    txn_id: int
    seq: int                      # 1-based submission order (the x axis)
    coordinator: int
    committed: bool
    abort_reason: AbortReason
    size: int                     # number of operations
    items_read: int
    items_written: int
    submitted_at: float
    finished_at: float
    coordinator_elapsed: float    # reception -> 2PC completion (§2.2.1)
    participant_elapsed: dict[int, float] = field(default_factory=dict)
    copiers_requested: int = 0
    clear_notices_sent: int = 0

    @classmethod
    def from_done(
        cls,
        msg: "Message",
        *,
        seq: int,
        submitted_at: float,
        finished_at: float,
        participant_elapsed: dict[int, float],
    ) -> "TxnRecord":
        """The record of the outcome a coordinator reported in its
        ``MGR_TXN_DONE``; the driver supplies what only it knows."""
        payload = msg.payload
        return cls(
            txn_id=msg.txn_id,
            seq=seq,
            coordinator=msg.src,
            committed=payload["committed"],
            abort_reason=_REASON_BY_VALUE[payload["reason"]],
            size=payload["size"],
            items_read=payload["items_read"],
            items_written=payload["items_written"],
            submitted_at=submitted_at,
            finished_at=finished_at,
            coordinator_elapsed=payload["coordinator_elapsed"],
            participant_elapsed=participant_elapsed,
            copiers_requested=payload["copiers"],
            clear_notices_sent=payload["clear_notices"],
        )

    @property
    def elapsed(self) -> float:
        """End-to-end time as the managing site saw it."""
        return self.finished_at - self.submitted_at


@dataclass(slots=True)
class ControlRecord:
    """One control transaction occurrence."""

    kind: int                     # 1, 2, or 3
    site_id: int                  # where the duration was measured
    role: str                     # "recovering" | "operational" | "announcer"
    started_at: float
    finished_at: float

    @property
    def elapsed(self) -> float:
        return self.finished_at - self.started_at


@dataclass(slots=True)
class CopierRecord:
    """One copier exchange (request -> copies installed)."""

    txn_id: int
    requester: int
    source: int
    items: int
    batch: bool
    started_at: float
    finished_at: float = -1.0


@dataclass(slots=True)
class RecoveryPeriodRecord:
    """One recovery period of one site (type-1 completion -> last
    fail-lock clear), as tracked by its
    :class:`~repro.core.recovery.RecoveryManager`.

    ``interrupted`` marks a period that never completed because the site
    failed again and started a new one — the flapping-site case; its
    ``finished_at`` stays -1.
    """

    site_id: int
    policy: str                   # RecoveryPolicy value
    started_at: float
    finished_at: float
    initial_stale: int
    copier_requests: int
    batch_copier_requests: int
    refreshed_by_write: int
    refreshed_by_copier: int
    interrupted: bool = False

    @property
    def elapsed(self) -> float:
        """Recovery-period length; -1 when interrupted."""
        if self.finished_at < 0:
            return -1.0
        return self.finished_at - self.started_at


@dataclass(slots=True, frozen=True)
class ViolationRecord:
    """One protocol-invariant violation flagged by the chaos auditor.

    ``invariant`` names the audited property (``atomicity``,
    ``session-monotonicity``, ``faillock-coverage``, ``convergence``);
    ``description`` is a deterministic, human-readable account of the
    violating state.
    """

    invariant: str
    time: float
    description: str
    txn_id: int = -1
    site_id: int = -1
    item_id: int = -1

    def format(self) -> str:
        """One deterministic report line."""
        return f"t={self.time:.1f}ms [{self.invariant}] {self.description}"


@dataclass(slots=True)
class FailLockSample:
    """Fail-lock counts observed after one transaction completes.

    ``locks_per_site[k]`` is the number of data items whose copy on site
    ``k`` is out-of-date — exactly the y axis of Figures 1–3.
    """

    seq: int
    time: float
    locks_per_site: dict[int, int]
