"""Transactions and commit processing.

The paper processes database transactions with a two-phase commit protocol
(Appendix A), serially, without concurrency control (assumption 2).  This
package provides the transaction model (the 2PC roles that commit it live
in :mod:`repro.site`), plus — for the paper's declared future work of running
the protocol "in the complete RAID system ... taking into account
concurrency control" — a strict two-phase-locking lock manager (its
waits-for deadlock detection lives in :mod:`repro.system.deadlock`).
"""

from repro.txn.operations import OpKind, Operation, random_transaction_ops
from repro.txn.transaction import Transaction, TxnStatus, TxnOutcome, AbortReason
from repro.txn.locks import LockMode, LockManager, LockGrant

__all__ = [
    "OpKind",
    "Operation",
    "random_transaction_ops",
    "Transaction",
    "TxnStatus",
    "TxnOutcome",
    "AbortReason",
    "LockMode",
    "LockManager",
    "LockGrant",
]
