"""The participating-site role (paper Appendix A.2).

Phase one: receive the copy updates from the coordinating site, buffer
them, acknowledge.  Phase two: on the commit indication, apply the buffered
updates, perform fail-lock maintenance, acknowledge; on an abort
indication, discard the buffered updates.

The participant also measures its own elapsed time — "between the start of
the site's participation in phase one of the protocol and the completion of
the site's participation in phase two" (§2.2.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, TYPE_CHECKING

from repro.net.endpoint import HandlerContext
from repro.net.message import Message, MessageType
from repro.obs.events import EventKind
from repro.site.coordinator import DecisionLog
from repro.txn.locks import LockMode

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.site.site import DatabaseSite


# The participant's inputs keyed by transaction id, as inputs of its table:
# the status-inquiry timer, and a TXN_STATUS_REQ of ours that bounced off
# a down or unreachable candidate.
STATUS_TIMEOUT = "status_timeout"
STATUS_REQ_BOUNCED = "status_req_bounced"

# Cooperative termination as the participant runs it: (input, handler) —
# the inputs that act only on a transaction staged here.  An input for a
# transaction no longer staged (the real indication raced it in, or a
# crash wiped it) is ignored; that test is made once, in
# ParticipantRole._accepting, and nowhere else.
PARTICIPANT_TABLE = (
    (MessageType.TXN_STATUS_RESP, "on_status_resp"),
    (STATUS_TIMEOUT, "_on_status_timer"),
    (STATUS_REQ_BOUNCED, "on_status_req_failed"),
)


@dataclass(slots=True)
class StagedTxn:
    """Everything the participant tracks for one staged transaction."""

    txn_id: int
    coordinator: int
    updates: list[tuple[int, int, int]]
    # Per written item, the sites the coordinator shipped the update to.
    recipients: dict[int, list[int]]
    # Phase-one start, for this site's elapsed time.
    started_at: float
    # Cooperative termination: the candidate sites still to ask
    # (coordinator first, then peers); None until the first inquiry.
    inquiry: Optional[list[int]] = None

    def signature(self) -> tuple:
        """Hashable snapshot of the protocol-visible state (``repro.check``).

        Excludes ``started_at``: two states that differ only in when a
        vote arrived make the same protocol decisions.
        """
        return (
            self.txn_id,
            tuple(self.updates),
            tuple(
                (item, tuple(sites))
                for item, sites in sorted(self.recipients.items())
            ),
            self.coordinator,
        )


class ParticipantRole:
    """Participant-side protocol logic for one site."""

    def __init__(self, site: "DatabaseSite") -> None:
        self.site = site
        self.staged: dict[int, StagedTxn] = {}
        # Outcomes this site applied as a participant.
        self.decisions = DecisionLog()
        # PARTICIPANT_TABLE, bound: input -> the handler behind its test.
        # The site dispatches TXN_STATUS_RESP and the bounce through it;
        # the timer fires it.
        self.accept: dict[MessageType | str, Callable] = {
            key: self._accepting(getattr(self, name), isinstance(key, str))
            for key, name in PARTICIPANT_TABLE
        }

    def _accepting(self, handler: Callable, by_txn: bool) -> Callable:
        """``handler`` behind one PARTICIPANT_TABLE row's test: it runs
        only while the input's transaction is staged here (and, for an
        input keyed by transaction id, while this site is up — timers and
        failure notices outlive a crash)."""
        staged = self.staged
        if by_txn:
            site = self.site

            def on_txn(ctx: HandlerContext, txn_id: int) -> None:
                if site.alive:
                    entry = staged.get(txn_id)
                    if entry is not None:
                        handler(ctx, entry)

            return on_txn

        def on_message(ctx: HandlerContext, msg: Message) -> None:
            entry = staged.get(msg.txn_id)
            if entry is not None:
                handler(ctx, entry, msg)

        return on_message

    def _arm(self, ctx: HandlerContext, txn_id: int) -> None:
        """Fire the status-inquiry timer for ``txn_id`` after
        ``status_inquiry_ms``."""
        fire = self.accept[STATUS_TIMEOUT]
        ctx.after(
            self.site.config.status_inquiry_ms, lambda ctx2: fire(ctx2, txn_id)
        )

    def crash_reset(self) -> None:
        """Crash: drop volatile participant state (every staged record,
        inquiries included).  ``decisions`` survives as the stable
        decision log — see ``CoordinatorRole.crash_reset``."""
        self.staged.clear()

    def signature(self) -> tuple:
        """Hashable snapshot of participant 2PC state (``repro.check``)."""
        staged = sorted(self.staged.items())
        return (
            tuple(entry.signature() for _txn, entry in staged),
            self.decisions.signature(),
            tuple(
                (txn, tuple(entry.inquiry))
                for txn, entry in staged
                if entry.inquiry is not None
            ),
        )

    def on_vote_req(self, ctx: HandlerContext, msg: Message) -> None:
        """Phase one: buffer the copy updates and acknowledge.

        In the concurrent ("complete RAID") mode, the copy updates are
        buffered only once this site's exclusive locks on the written items
        are granted — the acknowledgement waits with them.
        """
        site = self.site
        txn_id = msg.txn_id
        # Session-number check (§1.1: "a session number is also useful in
        # determining if the status of a site has changed during the
        # execution of a transaction").  A coordinator presenting an older
        # session than we perceive is a ghost from before its own failure:
        # refuse to participate.  A *newer* session means we missed its
        # recovery announcement; adopt it and proceed.
        if msg.session >= 0:
            perceived = site.nsv.session_of(msg.src)
            if msg.session < perceived:
                ctx.send(
                    msg.src,
                    MessageType.VOTE_NACK,
                    {"reason": "stale_session", "perceived": perceived},
                    txn_id=txn_id,
                    session=site.nsv.my_session,
                )
                return
            if msg.session > perceived:
                site.nsv.mark_up(msg.src, msg.session)
        # Under partial replication, buffer only the items we hold.
        held = site.db._held
        updates = [tuple(u) for u in msg.payload["updates"] if u[0] in held]
        started = ctx.now
        if site.lock_service is not None and updates:
            requests = [(item, LockMode.EXCLUSIVE) for item, _v, _ver in updates]
            site.lock_service.acquire(
                ctx,
                txn_id,
                requests,
                lambda ctx2: self._stage_and_ack(ctx2, msg, updates, started),
            )
            return
        self._stage_and_ack(ctx, msg, updates, started)

    def _stage_and_ack(
        self,
        ctx: HandlerContext,
        msg: Message,
        updates: list[tuple[int, int, int]],
        started: float,
    ) -> None:
        site = self.site
        txn_id = msg.txn_id
        if txn_id in self.staged:
            return  # duplicate phase-1 delivery
        ctx.charge(site.costs.write_stage_cost * len(updates))
        site.db.stage(txn_id, updates)
        obs = site.network.obs
        if obs.enabled:
            obs.emit(
                ctx.now,
                EventKind.PART_STAGE,
                site=site.site_id,
                txn=txn_id,
                items=len(updates),
                coordinator=msg.src,
            )
        recipients = {
            int(item): list(sites)
            for item, sites in msg.payload.get("recipients", {}).items()
        }
        self.staged[txn_id] = StagedTxn(txn_id, msg.src, updates, recipients, started)
        if site.config.timeouts_enabled:
            # Blocked-transaction watchdog: if neither COMMIT nor ABORT has
            # arrived by then, run the TXN_STATUS_REQ termination inquiry.
            self._arm(ctx, txn_id)

        # Embedded clear-fail-locks information (the §2.2.3 optimization).
        embedded = msg.payload.get("cleared_faillocks")
        if embedded:
            ctx.charge(site.costs.clear_notice_apply_cost)
            for owner, items in embedded.items():
                site.faillocks.clear_locks(items, owner)

        ack_payload: dict = {}
        read_items = msg.payload.get("read_items")
        if read_items is not None:
            # Quorum strategy: report our versions so the coordinator can
            # pick the newest copy for each read.
            ack_payload["read_versions"] = site.db.snapshots(read_items)
        ctx.send(
            msg.src,
            MessageType.VOTE_ACK,
            ack_payload,
            txn_id=txn_id,
            session=site.nsv.my_session,
        )

    def on_commit(self, ctx: HandlerContext, msg: Message) -> None:
        """Phase two: apply the buffered updates and acknowledge."""
        entry = self.staged.get(msg.txn_id)
        if entry is None:
            # Commit for a transaction we never staged (should not happen
            # under the serial driver); acknowledge to unblock the
            # coordinator and move on.
            ctx.send(msg.src, MessageType.COMMIT_ACK, {}, txn_id=msg.txn_id)
            return
        self._commit(ctx, entry, msg.payload.get("version", -1))

    def _commit(self, ctx: HandlerContext, entry: StagedTxn, version: int) -> None:
        """Apply the staged updates at the commit point (phase two or a
        cooperative-termination "committed" answer), acknowledge to the
        coordinator — after a "committed" answer that is best effort, for
        a coordinator still waiting — and time this site's participation."""
        site = self.site
        txn_id = entry.txn_id
        del self.staged[txn_id]
        site.db.abort_staged(txn_id)  # re-apply through the shared path
        stamped = [(item, value, version) for item, value, _v in entry.updates]
        site.commit_writes(ctx, txn_id, stamped, entry.recipients)
        if site.lock_service is not None:
            site.lock_service.release(ctx, txn_id)
        self.decisions.note(txn_id, ("committed", version))
        ctx.send(
            entry.coordinator,
            MessageType.COMMIT_ACK,
            {},
            txn_id=txn_id,
            session=site.nsv.my_session,
        )

        def record_elapsed() -> None:
            site.metrics.note_participant(
                txn_id, site.site_id, site.network.scheduler.now - entry.started_at
            )

        ctx.on_done(record_elapsed)

    def on_abort(self, ctx: HandlerContext, msg: Message) -> None:
        """Abort indication: discard the buffered copy updates (and, in
        concurrent mode, cancel any parked lock acquisition)."""
        self._discard(ctx, msg.txn_id)

    def _discard(self, ctx: HandlerContext, txn_id: int) -> None:
        self.site.db.abort_staged(txn_id)
        if self.staged.pop(txn_id, None) is not None:
            self.decisions.note(txn_id, ("aborted", -1))
        if self.site.lock_service is not None:
            self.site.lock_service.cancel(ctx, txn_id)

    # -- cooperative termination (blocked-transaction resolution) ------------------

    def _on_status_timer(self, ctx: HandlerContext, entry: StagedTxn) -> None:
        """The commit/abort indication is overdue: ask around.

        The coordinator is asked first (it knows; it may merely be slow or
        behind a lossy channel), then every operational peer — any
        participant that already applied the outcome can answer.
        """
        site = self.site
        coordinator = entry.coordinator
        site.metrics.counters.incr("status_inquiries")
        obs = site.network.obs
        if obs.enabled:
            obs.emit(
                ctx.now,
                EventKind.TERM_PROBE,
                site=site.site_id,
                txn=entry.txn_id,
                coordinator=coordinator,
            )
        entry.inquiry = [coordinator] + [
            peer
            for peer in sorted(site.nsv.operational_peers())
            if peer != coordinator
        ]
        self._send_next_inquiry(ctx, entry)

    def _send_next_inquiry(self, ctx: HandlerContext, entry: StagedTxn) -> None:
        candidates = entry.inquiry
        if not candidates:
            self._presume_abort(ctx, entry.txn_id)
            return
        ctx.send(
            candidates.pop(0),
            MessageType.TXN_STATUS_REQ,
            {},
            txn_id=entry.txn_id,
            session=self.site.nsv.my_session,
        )

    def on_status_resp(
        self, ctx: HandlerContext, entry: StagedTxn, msg: Message
    ) -> None:
        """A status answer arrived for a blocked transaction."""
        site = self.site
        status = msg.payload["status"]
        obs = site.network.obs
        if obs.enabled and status in ("committed", "aborted"):
            obs.emit(
                ctx.now,
                EventKind.TERM_RESULT,
                site=site.site_id,
                txn=entry.txn_id,
                status=status,
                answered_by=msg.src,
            )
        if status == "committed":
            site.metrics.counters.incr("termination_committed")
            self._commit(ctx, entry, msg.payload.get("version", -1))
        elif status == "aborted":
            site.metrics.counters.incr("termination_aborted")
            self._discard(ctx, entry.txn_id)
        elif status == "pending":
            # The decision genuinely has not been taken yet; back off and
            # re-run the whole inquiry later.
            self._arm(ctx, entry.txn_id)
        else:  # "unknown" — this candidate cannot help; try the next
            self._send_next_inquiry(ctx, entry)

    def on_status_req_failed(self, ctx: HandlerContext, entry: StagedTxn) -> None:
        """Our TXN_STATUS_REQ bounced (candidate down/unreachable): treat it
        like an "unknown" answer and move to the next candidate."""
        self._send_next_inquiry(ctx, entry)

    def _presume_abort(self, ctx: HandlerContext, txn_id: int) -> None:
        """Every candidate is unreachable or ignorant: presume abort.

        Safe in this system because the coordinator ships the COMMIT to all
        participants in one activation and commits locally only after every
        COMMIT_ACK: if any site had applied the commit, some operational
        participant (or the coordinator) would have answered "committed".
        All candidates answering "unknown" means no copy of the decision
        survives — discarding the staged updates leaves every site
        consistent with the transaction never having committed.
        """
        site = self.site
        site.metrics.counters.incr("termination_presumed_abort")
        obs = site.network.obs
        if obs.enabled:
            obs.emit(
                ctx.now,
                EventKind.TERM_RESULT,
                site=site.site_id,
                txn=txn_id,
                status="presumed_abort",
            )
        self._discard(ctx, txn_id)

    def txn_status(self, txn_id: int) -> tuple[str, int]:
        """Answer a peer's TXN_STATUS_REQ from this site's participant view.

        A transaction merely staged here is reported "unknown", not
        "pending" — a participant has no say in the decision, and two
        mutually blocked participants reporting "pending" to each other
        would inquire forever.
        """
        return self.decisions.get(txn_id)
