"""The coordinating-site role (paper Appendix A.1).

The site that receives a database transaction from the managing site
coordinates it:

1. If the transaction reads any fail-locked copy, run copier transactions
   first (and abort if no operational site can supply a good copy).
2. Phase one: ship the copy updates for written items to every operational
   participant and collect acks.
3. Phase two: ship the commit indication, collect commit acks, commit
   locally, and perform fail-lock maintenance.

A participant discovered down mid-protocol triggers a type-2 control
transaction; in phase one that aborts the transaction, in phase two the
commit still completes among the survivors (Appendix A).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional, TYPE_CHECKING

from repro.core import copier as copier_mod
from repro.core.rowaa import ReadSource
from repro.net.endpoint import HandlerContext
from repro.net.message import Message, MessageType
from repro.obs.events import EventKind
from repro.system.config import ClearNoticeMode
from repro.txn.locks import LockMode
from repro.txn.transaction import AbortReason, Transaction

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.site.site import DatabaseSite


def write_value(txn_id: int, item_id: int) -> int:
    """The deterministic value a transaction writes to an item.

    Encoding the writer and the item makes every copy's provenance
    auditable in consistency checks.
    """
    return txn_id * 100_000 + item_id


class CommitPhase(enum.Enum):
    """Where a coordinated transaction currently stands."""

    EXECUTING = "executing"        # local reads/writes, copiers if needed
    COPIER_WAIT = "copier_wait"    # waiting for COPY_RESP
    VOTING = "voting"              # phase 1: waiting for VOTE_ACKs
    COMMITTING = "committing"      # phase 2: waiting for COMMIT_ACKs
    RECOVERY = "recovery"          # crashed mid-phase-2: REDO at recovery
    DONE = "done"


# The coordinator's protocol timers, as inputs of the phase table.
VOTE_TIMEOUT = "vote_timeout"
COMMIT_TIMEOUT = "commit_timeout"

# Appendix A.1 as the coordinator runs it: (phase, input, handler) — the
# messages and timers each phase accepts, and the method that takes them.
# An input for a transaction in any other phase, or no longer active, is
# a leftover of an earlier round and is ignored; that test is made once,
# in CoordinatorRole._accepting, and nowhere else.  No row names RECOVERY:
# a transaction the crash caught in phase two takes no input until the
# site's recovery replays it.
PHASE_TABLE = (
    (CommitPhase.COPIER_WAIT, MessageType.COPY_RESP, "on_copy_resp"),
    (CommitPhase.COPIER_WAIT, MessageType.COPY_DENIED, "on_copy_denied"),
    (CommitPhase.VOTING, MessageType.VOTE_ACK, "on_vote_ack"),
    (CommitPhase.VOTING, MessageType.VOTE_NACK, "on_vote_nack"),
    (CommitPhase.VOTING, VOTE_TIMEOUT, "_on_vote_timeout"),
    (CommitPhase.COMMITTING, MessageType.COMMIT_ACK, "on_commit_ack"),
    (CommitPhase.COMMITTING, COMMIT_TIMEOUT, "_on_commit_timeout"),
)


@dataclass(slots=True)
class CoordinatorState:
    """Everything the coordinator tracks for one in-flight transaction."""

    txn: Transaction
    phase: CommitPhase = CommitPhase.EXECUTING
    participants: list[int] = field(default_factory=list)
    pending_votes: set[int] = field(default_factory=set)
    pending_commit_acks: set[int] = field(default_factory=set)
    updates: list[tuple[int, int, int]] = field(default_factory=list)
    # Per written item, the sites that receive the update (the coordinator's
    # write-all-available set); drives exact fail-lock maintenance.
    recipients: dict[int, list[int]] = field(default_factory=dict)
    commit_version: int = -1
    copier_items: list[int] = field(default_factory=list)
    copiers_requested: int = 0
    started_at: float = 0.0
    # Phase-2 termination: how many times the commit timer has re-sent the
    # COMMIT to silent participants (escalates to the type-2 path past
    # ``commit_max_retries``).
    commit_retries: int = 0

    def drop_participant(self, site_id: int) -> None:
        """Remove a participant the coordinator has stopped waiting on.

        Reached from both detection paths: a delivery-failure notice (the
        network reports the site down or unreachable) and a protocol
        timeout (phase-1 votes or phase-2 acks overdue past the configured
        retry budget).  Dropping the site lets the protocol complete among
        the remainder, per Appendix A."""
        if site_id in self.participants:
            self.participants.remove(site_id)
        self.pending_votes.discard(site_id)
        self.pending_commit_acks.discard(site_id)

    def signature(self) -> tuple:
        """Hashable snapshot of the protocol-visible state (``repro.check``).

        Excludes ``started_at`` (wall-clock of the sim, not protocol
        state); vote/ack *sets* are sorted because their membership, not
        arrival order, drives the protocol.
        """
        return (
            self.phase.value,
            tuple(self.participants),
            tuple(sorted(self.pending_votes)),
            tuple(sorted(self.pending_commit_acks)),
            tuple(self.updates),
            tuple(
                (item, tuple(sites))
                for item, sites in sorted(self.recipients.items())
            ),
            self.commit_version,
            tuple(self.copier_items),
            -1,  # a retired slot, kept so pinned state fingerprints hold
            self.copiers_requested,
            self.commit_retries,
        )


class DecisionLog:
    """One role's stable 2PC log: txn_id -> ("committed"|"aborted",
    version), kept to answer TXN_STATUS_REQ inquiries from blocked
    participants after the in-flight record is gone.  It survives a crash.

    ``cap`` of ``None`` keeps every outcome (the experiments' default —
    also what ``repro.check`` state signatures expect).  Soak runs set a
    cap and the oldest entries are truncated, like a real 2PC log:
    inquiries only ever concern transactions still blocked somewhere,
    which at soak timeouts is a few seconds of history, far inside any
    reasonable cap.
    """

    __slots__ = ("outcomes", "cap")

    def __init__(self) -> None:
        self.outcomes: dict[int, tuple[str, int]] = {}
        self.cap: int | None = None

    def note(self, txn_id: int, outcome: tuple[str, int]) -> None:
        """Record an outcome, truncating the oldest entries past the cap."""
        outcomes = self.outcomes
        outcomes[txn_id] = outcome
        cap = self.cap
        if cap is not None:
            while len(outcomes) > cap:
                del outcomes[next(iter(outcomes))]

    def get(self, txn_id: int) -> tuple[str, int]:
        """The logged outcome, or ``("unknown", -1)``."""
        return self.outcomes.get(txn_id, ("unknown", -1))

    def signature(self) -> tuple:
        return tuple(sorted(self.outcomes.items()))


class CoordinatorRole:
    """Coordinator-side protocol logic for one site."""

    def __init__(self, site: "DatabaseSite") -> None:
        self.site = site
        self.active: dict[int, CoordinatorState] = {}
        # Outcomes of finished transactions.
        self.decisions = DecisionLog()
        # PHASE_TABLE, bound: input -> the handler behind its phase test.
        # The site dispatches the messages through it; timers fire it.
        self.accept: dict[MessageType | str, Callable] = {
            key: self._accepting(phase, getattr(self, name), isinstance(key, str))
            for phase, key, name in PHASE_TABLE
        }
        # Copier exchanges in flight: txn_id -> {source site: [item ids]}.
        self._copier_pending: dict[int, dict[int, list[int]]] = {}
        # Fail-locks cleared by copiers, awaiting embedding in a future
        # VOTE_REQ (ClearNoticeMode.EMBEDDED only).  They accumulate until
        # this site next coordinates a transaction with participants — a
        # read-only transaction has no phase one to carry them.
        self._pending_embedded_clears: list[int] = []
        self._clear_notice_counts: dict[int, int] = {}

    def _accepting(
        self, phase: CommitPhase, handler: Callable, timer: bool
    ) -> Callable:
        """``handler`` behind one PHASE_TABLE row's test: it runs only
        while the input's transaction is active and in ``phase`` (and, for
        a timer, while this site is up — timers outlive a crash)."""
        active = self.active
        if timer:
            site = self.site

            def on_timer(ctx: HandlerContext, txn_id: int) -> None:
                if site.alive:
                    state = active.get(txn_id)
                    if state is not None and state.phase is phase:
                        handler(ctx, state)

            return on_timer

        def on_message(ctx: HandlerContext, msg: Message) -> None:
            state = active.get(msg.txn_id)
            if state is not None and state.phase is phase:
                handler(ctx, state, msg)

        return on_message

    def _arm(self, ctx: HandlerContext, delay: float, timer: str, txn_id: int) -> None:
        """Fire the phase table's ``timer`` input for ``txn_id`` after
        ``delay`` ms."""
        fire = self.accept[timer]
        ctx.after(delay, lambda ctx2: fire(ctx2, txn_id))

    def crash_reset(self) -> None:
        """Crash: drop all volatile coordinator state.

        In-flight 2PC state, copier exchanges, and staged clear notices
        die with the site.  Two things survive, modelling the 2PC stable
        log: ``decisions`` (outcomes already reported), and — for
        transactions in phase two at the instant of the crash — the
        commit record itself.  Real presumed-abort 2PC force-writes the
        commit record *before* sending COMMITs, so a coordinator that
        crashed mid-phase-2 must still count the transaction committed:
        its participants may have applied the updates, and only this
        site's own local apply was lost.  Such a state stays in ``active``
        under RECOVERY for :meth:`recover`'s REDO pass; without it the
        crashed coordinator's own copies would silently go stale with no
        fail-lock anywhere (participants saw a live recipient).
        """
        active = self.active
        for txn_id, state in sorted(active.items()):
            if state.phase is CommitPhase.COMMITTING and state.updates:
                self.decisions.note(txn_id, ("committed", state.commit_version))
                state.phase = CommitPhase.RECOVERY
            else:
                del active[txn_id]
        self._copier_pending.clear()
        self._pending_embedded_clears.clear()
        self._clear_notice_counts.clear()

    def recover(self, ctx: HandlerContext) -> None:
        """Recovery REDO: re-apply each RECOVERY state's commit to the
        local database and drop the state (idempotent — ``install_copy``
        refuses to go backwards)."""
        db, active = self.site.db, self.active
        for txn_id, state in sorted(active.items()):
            if state.phase is CommitPhase.RECOVERY:
                version = state.commit_version
                for item, value, _v in state.updates:
                    db.install_copy(item, value, version, ctx.now, source_txn=txn_id)
                del active[txn_id]

    def _running(self, txn_id: int) -> Optional[CoordinatorState]:
        """``txn_id``'s state, unless it is finished or waits in RECOVERY
        (the inputs outside the phase table ignore both alike)."""
        state = self.active.get(txn_id)
        if state is None or state.phase is CommitPhase.RECOVERY:
            return None
        return state

    def signature(self) -> tuple:
        """Hashable snapshot of coordinator 2PC state (``repro.check``).

        Composes per-transaction :meth:`CoordinatorState.signature`.
        """
        return (
            tuple(
                (txn_id, state.signature())
                for txn_id, state in sorted(self.active.items())
            ),
            self.decisions.signature(),
            tuple(
                (
                    txn,
                    tuple(
                        (source, tuple(items))
                        for source, items in sorted(pending.items())
                    ),
                )
                for txn, pending in sorted(self._copier_pending.items())
            ),
            tuple(self._pending_embedded_clears),
        )

    # -- entry point ------------------------------------------------------------

    def begin(self, ctx: HandlerContext, txn: Transaction) -> None:
        """Process a transaction received from the managing site."""
        site = self.site
        costs = site.costs
        txn.coordinator = site.site_id
        txn.submitted_at = ctx.now
        state = CoordinatorState(txn=txn, started_at=ctx.now)
        self.active[txn.txn_id] = state
        obs = site.network.obs
        if obs.enabled:
            # txn.begin is stamped at started_at, the same instant the
            # elapsed-time window opens — the timeline's phase sums equal
            # the recorded elapsed time because both share this anchor.
            obs.emit(
                ctx.now,
                EventKind.TXN_BEGIN,
                site=site.site_id,
                txn=txn.txn_id,
                size=txn.size,
                reads=len(txn.read_items),
                writes=len(txn.write_items),
            )
        ctx.charge(costs.txn_base_cost + costs.op_execute_cost * txn.size)

        if site.lock_service is not None:
            self._acquire_coordinator_locks(ctx, state)
            return
        self._start_protocol(ctx, state)

    def _acquire_coordinator_locks(
        self, ctx: HandlerContext, state: CoordinatorState
    ) -> None:
        """Concurrent mode: take local S/X locks, then run the protocol.

        The abort hook the lock service registers with the global detector
        — once the transaction records a lock or parks, the only ways into
        a waits-for cycle — lets a deadlock victim be killed wherever its
        wait was detected.
        """
        site = self.site
        txn = state.txn
        write_set = set(txn.write_items)
        # One member lookup each: reading one off an Enum class is slow.
        exclusive, shared = LockMode.EXCLUSIVE, LockMode.SHARED
        requests = [(item, exclusive) for item in sorted(write_set)]
        requests += [
            (item, shared) for item in sorted(set(txn.read_items) - write_set)
        ]
        service = site.lock_service
        assert service is not None
        abort_victim = None
        if service.detector is not None:
            txn_id = txn.txn_id

            def abort_victim(_ctx: HandlerContext) -> None:
                # Run at the coordinator, in its own activation.
                site.network.spawn(
                    site, lambda ctx2: self._abort_deadlock(ctx2, txn_id)
                )

        service.acquire(
            ctx,
            txn.txn_id,
            requests,
            lambda ctx2: self._start_protocol(ctx2, state),
            abort_victim,
        )

    def _abort_deadlock(self, ctx: HandlerContext, txn_id: int) -> None:
        state = self._running(txn_id)
        if state is None or state.txn.is_done:
            return
        self._abort(ctx, state, AbortReason.LOCK_DEADLOCK)

    def _start_protocol(self, ctx: HandlerContext, state: CoordinatorState) -> None:
        site = self.site
        txn = state.txn
        obs = site.network.obs
        if obs.enabled:
            # All site-local locks held (zero-length lock-wait phase in
            # serial mode, where this runs in the begin activation).
            obs.emit(
                ctx.now,
                EventKind.LOCK_GRANT,
                site=site.site_id,
                txn=txn.txn_id,
            )
        copy_control = site.copy_control
        if copy_control.refusal is not None:
            # The strategy's availability precondition: a writer needs a
            # write quorum (which, in every strategy, implies a read one).
            up = len(site.nsv.up_sites())
            if not (
                copy_control.can_write(up)
                if txn.write_items
                else copy_control.can_read(up)
            ):
                self._abort(ctx, state, copy_control.refusal)
                return

        if copy_control.votes_on_reads:
            # Reads are resolved during voting (peers return their
            # versions); no fail-lock/copier machinery is involved.
            self._execute_and_vote(ctx, state)
            return

        # Appendix A: a read of a fail-locked copy demands a copier first.
        # Under partial replication, reads of items with no local copy
        # travel over the same exchange (fetched but not installed).
        stale_reads = []
        spread = site.config.spread_copier_sources
        for plan in site.planner.plan_reads(txn.read_items):
            if plan.source is ReadSource.UNAVAILABLE:
                self._abort(ctx, state, AbortReason.COPY_UNAVAILABLE)
                return
            # COPIER_NEEDED or REMOTE: plan_reads leaves out the LOCAL ones.
            item = plan.item_id
            source = plan.site_id
            if spread:
                # Donor spreading: round-robin by item id across all
                # up-to-date sources instead of always the lowest.
                source = copier_mod.choose_copier_source(
                    site.planner, [item], spread=True
                )[item]
            stale_reads.append((item, source))
        if stale_reads:
            self._issue_copiers(ctx, state, stale_reads)
            return
        self._execute_and_vote(ctx, state)

    # -- copier transactions (Appendix A step 1) ---------------------------------

    def _issue_copiers(
        self,
        ctx: HandlerContext,
        state: CoordinatorState,
        stale_reads: list[tuple[int, int]],
    ) -> None:
        site = self.site
        txn_id = state.txn.txn_id
        state.phase = CommitPhase.COPIER_WAIT
        by_source: dict[int, list[int]] = {}
        for item, source in stale_reads:
            by_source.setdefault(source, []).append(item)
        self._copier_pending[txn_id] = by_source
        obs = site.network.obs
        if obs.enabled:
            obs.emit(
                ctx.now,
                EventKind.COPIER_BEGIN,
                site=site.site_id,
                txn=txn_id,
                sources=sorted(by_source),
                items=len(stale_reads),
                batch=False,
            )
        for source, items in sorted(by_source.items()):
            ctx.charge(site.costs.copy_request_cost)
            ctx.send(
                source,
                MessageType.COPY_REQ,
                {"items": sorted(items)},
                txn_id=txn_id,
                session=site.nsv.my_session,
            )
            state.copiers_requested += 1
            site.recovery.note_copier_request()

    def on_copy_resp(
        self, ctx: HandlerContext, state: CoordinatorState, msg: Message
    ) -> None:
        """A source site returned good copies."""
        site = self.site
        txn_id = msg.txn_id
        copies = msg.payload["copies"]
        ctx.charge(site.costs.copy_install_cost * len(copies))
        local = [c for c in copies if c[0] in site.db]
        site.db.install_copies(local, ctx.now)
        site.faillocks.clear_locks([item for item, _v, _ver in local], site.site_id)
        if local:
            site.recovery.note_refreshed_by_copier(len(local), ctx.now)
        # Items we hold no copy of (partial replication): record the
        # version the read saw, nothing to install or clear.
        for item, _value, version in copies:
            if item not in site.db:
                state.txn.reads[item] = version
        state.copier_items.extend(item for item, _v, _ver in local)
        pending = self._copier_pending.get(txn_id, {})
        pending.pop(msg.src, None)
        if not pending:
            self._copiers_complete(ctx, state)

    def on_copy_denied(
        self, ctx: HandlerContext, state: CoordinatorState, msg: Message
    ) -> None:
        """The source no longer has a good copy — abort (Appendix A)."""
        self._copier_pending.pop(msg.txn_id, None)
        self._abort(ctx, state, AbortReason.COPY_UNAVAILABLE)

    def _copiers_complete(self, ctx: HandlerContext, state: CoordinatorState) -> None:
        """All copier responses installed: propagate the cleared fail-locks,
        then continue with the database transaction."""
        site = self.site
        self._copier_pending.pop(state.txn.txn_id, None)
        cleared = sorted(set(state.copier_items))
        obs = site.network.obs
        if obs.enabled:
            obs.emit(
                ctx.now,
                EventKind.COPIER_END,
                site=site.site_id,
                txn=state.txn.txn_id,
                refreshed=len(cleared),
            )
        for _ in range(state.copiers_requested):
            site.metrics.record_copier(batch=False)
        if cleared and site.config.clear_notice_mode is ClearNoticeMode.SPECIAL_TXN:
            # The special transaction (§2.2.3): one message per operational
            # peer, fire-and-forget, telling them which bits we cleared.
            payload = {"site": site.site_id, "items": cleared}
            for peer in site.nsv.operational_peers():
                ctx.charge(site.costs.clear_notice_format_cost)
                ctx.send(
                    peer,
                    MessageType.CLEAR_FAILLOCKS,
                    payload,
                    txn_id=state.txn.txn_id,
                    session=site.nsv.my_session,
                )
            self._note_clear_notices(state, len(site.nsv.operational_peers()))
        elif cleared:
            # Embedded mode (§2.2.3's suggested optimization): ride along
            # with the next phase-1 copy updates this site sends.
            self._pending_embedded_clears.extend(cleared)
        self._execute_and_vote(ctx, state)

    def _note_clear_notices(self, state: CoordinatorState, count: int) -> None:
        self._clear_notice_counts[state.txn.txn_id] = (
            self._clear_notice_counts.get(state.txn.txn_id, 0) + count
        )

    # -- execution and phase one ---------------------------------------------------

    def _execute_and_vote(self, ctx: HandlerContext, state: CoordinatorState) -> None:
        site = self.site
        txn = state.txn

        # Reads: served from the local copy (fully replicated, and any
        # fail-locked copy was refreshed by a copier above); each records
        # the version it saw.  Remote-fetched versions (partial
        # replication) are already in txn.reads.  Under quorum the local
        # version is provisional until the votes return theirs.
        db, reads = site.db, txn.reads
        for item in txn.read_items:
            if item in db:
                reads[item] = db.version(item)

        # Writes: deterministic values.  The version is stamped at the
        # commit point (see _commit_version) so that per-item versions are
        # monotone in serialization order; -1 is the staging placeholder.
        state.updates = [
            (item, write_value(txn.txn_id, item), -1)
            for item in txn.write_items
        ]
        # Who actually receives each item's update — the exact clear/set
        # sets for fail-lock maintenance at every site.
        state.recipients = {
            item: site.planner.write_sites(item) for item in txn.write_items
        }

        votes_on_reads = site.copy_control.votes_on_reads
        if votes_on_reads:
            # Every operational peer votes (reads need version answers
            # even when nothing is written).
            participants = site.nsv.operational_peers()
        else:
            participants = site.planner.participants_for(txn.write_items)
        obs = site.network.obs
        if obs.enabled:
            obs.emit(
                ctx.now,
                EventKind.PHASE1_BEGIN,
                site=site.site_id,
                txn=txn.txn_id,
                participants=sorted(participants),
            )
        state.participants = list(participants)
        state.pending_votes = set(participants)
        state.phase = CommitPhase.VOTING
        if not participants:
            self._local_commit(ctx, state)
            return

        payload: dict = {"updates": state.updates, "recipients": state.recipients}
        if votes_on_reads:
            payload["read_items"] = txn.read_items
        if self._pending_embedded_clears:
            payload["cleared_faillocks"] = {
                site.site_id: sorted(set(self._pending_embedded_clears))
            }
            self._pending_embedded_clears.clear()
        for peer in participants:
            ctx.send(
                peer,
                MessageType.VOTE_REQ,
                payload,
                txn_id=txn.txn_id,
                session=site.nsv.my_session,
            )
        if site.config.timeouts_enabled:
            self._arm(ctx, site.config.vote_timeout_ms, VOTE_TIMEOUT, txn.txn_id)

    def _on_vote_timeout(self, ctx: HandlerContext, state: CoordinatorState) -> None:
        """Phase-1 votes never (all) arrived: abort and tell everyone.

        Appendix A treats a missing vote as a participant failure; with
        message loss in the picture the safe reading is only "this
        participant is not answering", so the transaction aborts without a
        type-2 announcement — no site is declared down on a timeout alone.
        """
        silent = sorted(state.pending_votes)
        self.site.metrics.counters.incr("timeout_vote_aborts")
        for peer in silent:
            state.drop_participant(peer)
        # The silent voters may well have staged the updates (their ack,
        # not the request, may be what was lost): send them the ABORT too.
        self._abort(
            ctx, state, AbortReason.PARTICIPANT_TIMEOUT, extra_targets=silent
        )

    def on_vote_ack(
        self, ctx: HandlerContext, state: CoordinatorState, msg: Message
    ) -> None:
        """Phase-one ack from a participant; the last one starts phase two."""
        if "read_versions" in msg.payload:
            self._merge_quorum_reads(state, msg.payload["read_versions"])
        state.pending_votes.discard(msg.src)
        if state.pending_votes:
            return
        site = self.site
        state.pending_commit_acks = set(state.participants)
        state.phase = CommitPhase.COMMITTING
        version = self._commit_version(state)
        obs = site.network.obs
        if obs.enabled:
            obs.emit(
                ctx.now,
                EventKind.PHASE2_BEGIN,
                site=site.site_id,
                txn=msg.txn_id,
                version=version,
            )
        self._send_commit(ctx, state, state.participants)
        if not state.participants:
            self._local_commit(ctx, state)
        elif site.config.timeouts_enabled:
            self._arm(ctx, site.config.commit_retry_ms, COMMIT_TIMEOUT, msg.txn_id)

    def _send_commit(
        self, ctx: HandlerContext, state: CoordinatorState, peers: list[int]
    ) -> None:
        """Ship the commit indication, with the version stamped on entry
        to phase two, to ``peers``."""
        version = state.commit_version
        nsv = self.site.nsv
        txn_id = state.txn.txn_id
        for peer in peers:
            ctx.send(
                peer,
                MessageType.COMMIT,
                {"version": version},
                txn_id=txn_id,
                session=nsv.my_session,
            )

    def _on_commit_timeout(self, ctx: HandlerContext, state: CoordinatorState) -> None:
        """Phase-2 acks are overdue.  The decision is commit, so there is
        nothing to abort: re-send the COMMIT to the silent participants,
        persistently.  The type-2 corrective path is reserved for
        participants the network reports genuinely unreachable (a bounce
        or a retransmission give-up, via :meth:`on_delivery_failed`);
        ``commit_max_retries`` is only a last-resort liveness backstop
        against an adversarial channel that swallows every re-send without
        ever producing such a report.
        """
        site = self.site
        pending = sorted(state.pending_commit_acks)
        if state.commit_retries < site.config.commit_max_retries:
            state.commit_retries += 1
            site.metrics.counters.incr("commit_retransmits")
            self._send_commit(ctx, state, pending)
            self._arm(ctx, site.config.commit_retry_ms, COMMIT_TIMEOUT, state.txn.txn_id)
            return
        self._drop_commit_peers(ctx, state, pending)

    def _merge_quorum_reads(
        self, state: CoordinatorState, versions: list[tuple[int, int, int]]
    ) -> None:
        """Keep, for each read item, the highest version read so far: the
        local copy's or a quorum peer's."""
        reads = state.txn.reads
        for item, _value, version in versions:
            if item in reads and version > reads[item]:
                reads[item] = version

    def on_vote_nack(
        self, ctx: HandlerContext, state: CoordinatorState, msg: Message
    ) -> None:
        """A participant refused phase one (stale session): the system's
        view of this site changed mid-transaction, so abort (§1.1)."""
        state.drop_participant(msg.src)
        self._abort(ctx, state, AbortReason.SESSION_CHANGED)

    def on_commit_ack(
        self, ctx: HandlerContext, state: CoordinatorState, msg: Message
    ) -> None:
        """Phase-two ack from a participant; the last one commits locally."""
        state.pending_commit_acks.discard(msg.src)
        if not state.pending_commit_acks:
            self._local_commit(ctx, state)

    # -- completion ------------------------------------------------------------------

    def _commit_version(self, state: CoordinatorState) -> int:
        """Stamp the transaction's commit version (idempotent).

        Read-only transactions write nothing, so they consume no version.
        """
        if not state.updates:
            return -1
        if state.commit_version < 0:
            state.commit_version = self.site.version_clock.tick()
        return state.commit_version

    def _local_commit(self, ctx: HandlerContext, state: CoordinatorState) -> None:
        site = self.site
        txn = state.txn
        version = self._commit_version(state)
        updates = [(item, value, version) for item, value, _v in state.updates]
        site.commit_writes(ctx, txn.txn_id, updates, state.recipients)
        txn.mark_committed(ctx.now)
        obs = site.network.obs
        if obs.enabled:
            obs.emit(
                ctx.now,
                EventKind.TXN_COMMIT,
                site=site.site_id,
                txn=txn.txn_id,
                version=version,
            )
        self.decisions.note(txn.txn_id, ("committed", version))
        state.phase = CommitPhase.DONE
        if site.lock_service is not None:
            site.lock_service.release(ctx, txn.txn_id)
            if site.lock_service.detector is not None:
                site.lock_service.detector.forget(txn.txn_id)
        self._report(ctx, state)

    def _abort(
        self,
        ctx: HandlerContext,
        state: CoordinatorState,
        reason: AbortReason,
        extra_targets: Optional[list[int]] = None,
    ) -> None:
        site = self.site
        txn = state.txn
        # Tell any participant holding staged updates to discard them.
        # ``extra_targets`` covers participants already dropped from the
        # state (e.g. silent phase-1 voters) that may hold staged updates
        # all the same.
        targets = set(state.pending_votes) | set(state.participants)
        targets.update(extra_targets or [])
        for peer in sorted(targets):
            ctx.send(peer, MessageType.ABORT, {}, txn_id=txn.txn_id)
        if state.phase is CommitPhase.COPIER_WAIT:
            # A transaction's copiers count once: when they complete, or
            # here.  A coordinator that crashes while waiting counts none
            # (``crash_reset`` drops the state).
            for _ in range(state.copiers_requested):
                site.metrics.record_copier(batch=False)
        txn.mark_aborted(reason, ctx.now)
        obs = site.network.obs
        if obs.enabled:
            obs.emit(
                ctx.now,
                EventKind.TXN_ABORT,
                site=site.site_id,
                txn=txn.txn_id,
                reason=reason.value,
            )
        self.decisions.note(txn.txn_id, ("aborted", -1))
        state.phase = CommitPhase.DONE
        if site.probe is not None:
            site.probe.on_coordinator_abort(site.site_id, txn.txn_id, reason)
        if site.lock_service is not None:
            site.lock_service.cancel(ctx, txn.txn_id)
        self._report(ctx, state)

    def _report(self, ctx: HandlerContext, state: CoordinatorState) -> None:
        """Send the outcome back to the managing site once the activation's
        work (the commit processing) has finished."""
        site = self.site
        txn = state.txn
        start = state.started_at
        clear_notices = self._clear_notice_counts.pop(txn.txn_id, 0)
        obs = site.network.obs
        # finalize() runs after the activation's CPU work completes, under
        # someone else's scope — capture the causal parent now.
        trace_parent = obs.scope if obs.enabled else -1

        def finalize() -> None:
            elapsed = site.network.scheduler.now - start
            if obs.enabled:
                # txn.end is emitted at the exact instant elapsed is
                # computed, so the timeline window equals the recorded
                # coordinator elapsed time by construction.
                obs.emit(
                    site.network.scheduler.now,
                    EventKind.TXN_END,
                    site=site.site_id,
                    txn=txn.txn_id,
                    parent=trace_parent,
                    elapsed=elapsed,
                    committed=txn.status.value == "committed",
                )
            site.send_outcome(txn, elapsed, state.copiers_requested, clear_notices)

        ctx.on_done(finalize)
        self.active.pop(txn.txn_id, None)

    # -- status inquiries (cooperative termination) --------------------------------------

    def txn_status(self, txn_id: int) -> tuple[str, int]:
        """Answer a TXN_STATUS_REQ about a transaction this site coordinated.

        Returns ``(status, commit_version)`` where status is "committed",
        "aborted", "pending" (decision not yet taken) or "unknown" (never
        coordinated here).  Once phase two has begun the decision *is*
        commit — participants asking mid-phase-2 may apply it.
        """
        state = self._running(txn_id)
        if state is not None:
            if state.phase is CommitPhase.COMMITTING:
                return ("committed", state.commit_version)
            return ("pending", -1)
        return self.decisions.get(txn_id)

    # -- failure notices ---------------------------------------------------------------

    def _drop_commit_peers(
        self, ctx: HandlerContext, state: CoordinatorState, peers: list[int]
    ) -> None:
        """Phase-2 participants declared unreachable: the commit completes
        among the survivors, but each of ``peers`` never applied its staged
        updates — its copies of the written items are stale.  The type-2
        announcement carries that corrective fail-lock information
        (survivors may have just cleared those very bits).  Once no ack is
        pending, commit locally."""
        site = self.site
        stale = sorted(item for item, _v, _ver in state.updates)
        recipients = state.recipients
        for peer in peers:
            site.announce_failure(ctx, [peer], stale_items=stale)
            for item in list(recipients):
                recipients[item] = [s for s in recipients[item] if s != peer]
            state.drop_participant(peer)
        if state.phase is CommitPhase.COMMITTING and not state.pending_commit_acks:
            self._local_commit(ctx, state)

    def on_delivery_failed(self, ctx: HandlerContext, msg: Message) -> None:
        """A protocol message bounced: the destination is down (Appendix A's
        "site to which ... sent is now down" branches), or the
        retransmission sublayer exhausted its retries and declared it
        unreachable."""
        site = self.site
        state = self._running(msg.txn_id)
        if msg.mtype is MessageType.COMMIT:
            # With no state the transaction already completed (a re-sent
            # COMMIT got through, or another notice finished the job); a
            # late bounce changes nothing.
            if state is not None:
                self._drop_commit_peers(ctx, state, [msg.dst])
            return
        site.announce_failure(ctx, [msg.dst])
        if state is None:
            return
        if msg.mtype is MessageType.COPY_REQ:
            self._copier_pending.pop(msg.txn_id, None)
            self._abort(ctx, state, AbortReason.COPIER_SOURCE_DOWN)
        elif msg.mtype is MessageType.VOTE_REQ:
            state.drop_participant(msg.dst)
            self._abort(ctx, state, AbortReason.PARTICIPANT_FAILED)
