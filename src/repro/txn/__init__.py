"""Transactions and commit processing.

The paper processes database transactions with a two-phase commit protocol
(Appendix A), serially, without concurrency control (assumption 2).  This
package provides the transaction model and the coordinator/participant
bookkeeping for 2PC, plus — for the paper's declared future work of running
the protocol "in the complete RAID system ... taking into account
concurrency control" — a strict two-phase-locking lock manager (its
waits-for deadlock detection lives in :mod:`repro.system.deadlock`).
"""

from repro.txn.operations import OpKind, Operation, random_transaction_ops
from repro.txn.transaction import Transaction, TxnStatus, TxnOutcome, AbortReason
from repro.txn.twophase import CommitPhase, CoordinatorState
from repro.txn.locks import LockMode, LockManager, LockGrant

__all__ = [
    "OpKind",
    "Operation",
    "random_transaction_ops",
    "Transaction",
    "TxnStatus",
    "TxnOutcome",
    "AbortReason",
    "CommitPhase",
    "CoordinatorState",
    "LockMode",
    "LockManager",
    "LockGrant",
]
