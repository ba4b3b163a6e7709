"""Replicated copy control — the paper's contribution.

Implements the read-one/write-all-available (ROWAA) copy control protocol
of Bhargava, Noll & Sabo: session numbers and nominal session vectors to
track which sites are operational, fail-locks to mark out-of-date copies on
failed sites, control transactions (types 1, 2, and the proposed type 3) to
propagate status changes, and copier transactions to refresh stale copies
during recovery.
"""

from repro.core.sessions import SiteState, SessionRecord, NominalSessionVector
from repro.core.faillocks import FailLockTable
from repro.core.rowaa import ReadPlan, ReadSource, RowaaPlanner
from repro.core.copier import choose_copier_source
from repro.core.recovery import RecoveryManager, RecoveryPolicy

__all__ = [
    "SiteState",
    "SessionRecord",
    "NominalSessionVector",
    "FailLockTable",
    "ReadPlan",
    "ReadSource",
    "RowaaPlanner",
    "choose_copier_source",
    "RecoveryManager",
    "RecoveryPolicy",
]
