"""The transaction object and its lifecycle."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import TransactionError
from repro.txn.operations import OpKind, Operation

# Bound once: reading a member off an Enum class runs Python-level code.
_READ = OpKind.READ


class TxnStatus(enum.Enum):
    """Lifecycle states of a database transaction."""

    PENDING = "pending"      # generated, not yet submitted
    ACTIVE = "active"        # executing at its coordinator
    COMMITTED = "committed"
    ABORTED = "aborted"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class AbortReason(enum.Enum):
    """Why a transaction aborted (the situations in Appendix A)."""

    NONE = "none"
    COPY_UNAVAILABLE = "copy_unavailable"     # copier had no source (§4.2.1)
    COPIER_SOURCE_DOWN = "copier_source_down"  # source failed mid-copier
    PARTICIPANT_FAILED = "participant_failed"  # phase-1 participant down
    PARTICIPANT_TIMEOUT = "participant_timeout"  # phase-1 votes never arrived
    COORDINATOR_FAILED = "coordinator_failed"
    SESSION_CHANGED = "session_changed"        # status change mid-transaction
    LOCK_DEADLOCK = "lock_deadlock"            # 2PL extension only
    WRITE_ALL_BLOCKED = "write_all_blocked"    # strict ROWA baseline only
    QUORUM_UNAVAILABLE = "quorum_unavailable"  # quorum baseline only

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(slots=True)
class Transaction:
    """One database transaction."""

    txn_id: int
    ops: list[Operation]
    coordinator: int = -1
    status: TxnStatus = TxnStatus.PENDING
    abort_reason: AbortReason = AbortReason.NONE
    submitted_at: float = -1.0
    finished_at: float = -1.0
    reads: dict[int, int] = field(default_factory=dict)
    # Distinct items read / written, in first-touch order.  ``ops`` never
    # changes after construction, and both sets are consulted on every hot
    # protocol step (planning, locking, reporting), so one pass over
    # ``ops`` derives them together.
    read_items: list[int] = field(init=False, repr=False, compare=False)
    write_items: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        reads: dict[int, None] = {}
        writes: dict[int, None] = {}
        for kind, item in self.ops:
            if kind is _READ:
                reads[item] = None
            else:
                writes[item] = None
        self.read_items = list(reads)
        self.write_items = list(writes)

    @property
    def size(self) -> int:
        """Number of operations."""
        return len(self.ops)

    @property
    def is_done(self) -> bool:
        return self.status in (TxnStatus.COMMITTED, TxnStatus.ABORTED)

    def mark_committed(self, time: float) -> None:
        """Transition to COMMITTED (once)."""
        if self.is_done:
            raise TransactionError(f"txn {self.txn_id} already {self.status}")
        self.status = TxnStatus.COMMITTED
        self.finished_at = time

    def mark_aborted(self, reason: AbortReason, time: float) -> None:
        """Transition to ABORTED (once)."""
        if self.is_done:
            raise TransactionError(f"txn {self.txn_id} already {self.status}")
        self.status = TxnStatus.ABORTED
        self.abort_reason = reason
        self.finished_at = time

    def __repr__(self) -> str:
        return (
            f"Transaction(id={self.txn_id}, ops={self.ops}, "
            f"coord={self.coordinator}, {self.status.value})"
        )
