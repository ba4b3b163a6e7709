"""Protocol messages.

One message type per arrow in the paper's protocol (Appendix A plus the
control-transaction machinery of §1.1), and a handful of management-plane
messages that stand in for the managing site's "interactive control".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any


class MessageType(enum.Enum):
    """Every inter-site message kind in the system."""

    # Managing-site control plane (paper §1.2: the managing site causes
    # sites to fail and recover and initiates database transactions).
    MGR_SUBMIT_TXN = "mgr_submit_txn"
    MGR_TXN_DONE = "mgr_txn_done"
    MGR_FAIL = "mgr_fail"
    MGR_RECOVER = "mgr_recover"
    MGR_RECOVER_DONE = "mgr_recover_done"

    # Two-phase commit (Appendix A).
    VOTE_REQ = "vote_req"            # phase 1: copy update for written items
    VOTE_ACK = "vote_ack"            # participant ack of phase 1
    VOTE_NACK = "vote_nack"          # participant refusal (session changed)
    COMMIT = "commit"                # phase 2: commit indication
    COMMIT_ACK = "commit_ack"        # participant ack of phase 2
    ABORT = "abort"                  # abort indication

    # Copier transactions (§1.1, §2.2.3).
    COPY_REQ = "copy_req"            # ask an operational site for good copies
    COPY_RESP = "copy_resp"          # the copies
    COPY_DENIED = "copy_denied"      # responder has no up-to-date copy
    CLEAR_FAILLOCKS = "clear_faillocks"  # the "special transaction"

    # Control transactions (§1.1).
    RECOVERY_ANNOUNCE = "recovery_announce"   # type 1, from recovering site
    RECOVERY_STATE = "recovery_state"         # type 1 reply: vector+fail-locks
    FAILURE_ANNOUNCE = "failure_announce"     # type 2
    CREATE_COPY = "create_copy"               # type 3 (proposed extension)
    CREATE_COPY_ACK = "create_copy_ack"

    # Blocked-transaction resolution (cooperative termination): a
    # participant holding staged updates for a silent coordinator asks the
    # coordinator — or, failing that, its peers — for the outcome.
    TXN_STATUS_REQ = "txn_status_req"
    TXN_STATUS_RESP = "txn_status_resp"

    # Transport-level acknowledgement of the reliable-delivery sublayer
    # (repro.net.reliable).  Never reaches an endpoint's handler.
    NET_ACK = "net_ack"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(slots=True)
class Message:
    """A single inter-site message.

    ``payload`` is a plain dict; the protocol layers define the keys.  The
    ``txn_id`` ties protocol messages to the transaction they serve, and
    ``session`` carries the sender's session number so receivers can detect
    status changes mid-transaction (paper §1.1).
    """

    src: int
    dst: int
    mtype: MessageType
    payload: dict[str, Any] = field(default_factory=dict)
    txn_id: int = -1
    session: int = -1
    send_time: float = -1.0
    # Per-channel sequence number stamped by the reliable-delivery
    # sublayer (repro.net.reliable); -1 means the message is untracked
    # (reliability disabled, or transport-internal traffic).
    seq: int = -1
    # Causal handle for repro.obs: the trace-event seq of whatever caused
    # this message (the queueing activation's scope, then the msg.send
    # event once transmitted).  -1 with tracing disabled.
    trace_ref: int = -1

    def __repr__(self) -> str:
        return (
            f"Message({self.mtype.value} {self.src}->{self.dst} "
            f"txn={self.txn_id})"
        )
