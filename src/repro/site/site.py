"""A mini-RAID database site.

Each site keeps "a copy of the database, nominal session vector, and
fail-locks and execute[s] the same protocol to maintain the consistency of
these objects" (paper §1.2).  The site is a network endpoint: one message
handler dispatching to the coordinator role, the participant role, the
control-transaction machinery, and the copier-responder logic.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Optional

from repro.core.faillocks import FailLockTable
from repro.core.recovery import (
    OnDemandRecovery,
    RecoveryManager,
    RecoveryPolicy,
    TwoStepRecovery,
)
from repro.core.rowaa import RowaaPlanner
from repro.core.sessions import NominalSessionVector, SiteState
from repro.core.strategy import COPY_CONTROL
from repro.errors import ConfigurationError, ProtocolError
from repro.metrics.collector import MetricsCollector
from repro.metrics.records import ControlRecord
from repro.net.endpoint import Endpoint, HandlerContext
from repro.net.message import Message, MessageType
from repro.net.network import Network
from repro.obs.events import EventKind
from repro.recovery.scheduler import ParallelCopierScheduler
from repro.sim.logical import LogicalClock
from repro.site.coordinator import CoordinatorRole
from repro.site.participant import STATUS_REQ_BOUNCED, ParticipantRole
from repro.storage.catalog import ReplicationCatalog
from repro.storage.database import SiteDatabase
from repro.system.config import SystemConfig
from repro.txn.transaction import Transaction

# Sentinel transaction id for batch copier exchanges (two-step and
# parallel recovery), which are not tied to any database transaction.
BATCH_COPIER_TXN = -2

# One object per recovery policy: which batch copiers to send, and when.
RECOVERY_POLICIES = {
    RecoveryPolicy.ON_DEMAND: OnDemandRecovery,
    RecoveryPolicy.TWO_STEP: TwoStepRecovery,
    RecoveryPolicy.PARALLEL: ParallelCopierScheduler,
}

# Message dispatch: one dict lookup per delivered message instead of a
# 20-branch if/elif chain.  Keyed by the member's value string, which
# hashes in C (an enum member's ``__hash__`` is a Python call), in
# handle() and in every site a cluster build binds the table for.
_ROUTES = tuple(
    (mtype._value_, attrgetter(path))
    for mtype, path in (
        (MessageType.MGR_SUBMIT_TXN, "_on_submit_txn"),
        (MessageType.VOTE_REQ, "participant.on_vote_req"),
        (MessageType.COMMIT, "participant.on_commit"),
        (MessageType.ABORT, "participant.on_abort"),
        (MessageType.TXN_STATUS_REQ, "_on_txn_status_req"),
        (MessageType.COPY_REQ, "_serve_copy_request"),
        (MessageType.COPY_RESP, "_on_copy_resp"),
        (MessageType.COPY_DENIED, "_on_copy_denied"),
        (MessageType.CLEAR_FAILLOCKS, "_on_clear_faillocks"),
        (MessageType.RECOVERY_ANNOUNCE, "_on_recovery_announce"),
        (MessageType.RECOVERY_STATE, "_on_recovery_state"),
        (MessageType.FAILURE_ANNOUNCE, "_on_failure_announce"),
        (MessageType.CREATE_COPY, "_on_create_copy"),
        (MessageType.CREATE_COPY_ACK, "_on_create_copy_ack"),
        (MessageType.MGR_FAIL, "_on_fail"),
        (MessageType.MGR_RECOVER, "_on_recover"),
    )
)
# ... and the messages the 2PC roles' tables take directly.
_COORDINATOR_ROUTES = (MessageType.VOTE_ACK, MessageType.VOTE_NACK, MessageType.COMMIT_ACK)
_PARTICIPANT_ROUTES = (MessageType.TXN_STATUS_RESP,)


class DatabaseSite(Endpoint):
    """One replicated database site."""

    def __init__(
        self,
        site_id: int,
        config: SystemConfig,
        catalog: ReplicationCatalog,
        metrics: MetricsCollector,
        version_clock: LogicalClock,
    ) -> None:
        super().__init__(site_id)
        self.config = config
        self.costs = config.costs
        self.catalog = catalog
        self.metrics = metrics
        self.version_clock = version_clock
        self.db = SiteDatabase(site_id, catalog.items_on(site_id))
        self.nsv = NominalSessionVector(site_id, config.site_ids)
        self.faillocks = FailLockTable(config.site_ids, catalog.item_ids)
        self.recovery = RecoveryManager(
            owner=site_id,
            faillocks=self.faillocks,
            policy=config.recovery_policy,
            batch_threshold=config.batch_threshold,
            batch_size=config.batch_size,
        )
        # A closed period's record is a pure metrics append — no
        # scheduling, costs or RNG — so keeping it cannot perturb replay.
        self.recovery.on_period_end = metrics.record_recovery_period
        self.planner = RowaaPlanner(site_id, self.nsv, self.faillocks, self.catalog)
        self.copy_control = COPY_CONTROL[config.strategy](config.num_sites)
        if self.copy_control.votes_on_reads and not catalog.is_fully_replicated():
            # Version votes count sites, not copies: over a partial catalog
            # a majority of sites is no quorum of an item's copies.
            raise ConfigurationError(
                f"strategy={config.strategy.value} needs a fully replicated "
                f"catalog; this catalog is partial"
            )
        self.recovery_policy = RECOVERY_POLICIES[config.recovery_policy](self)
        self.coordinator = CoordinatorRole(self)
        self.participant = ParticipantRole(self)
        if config.concurrency_control:
            from repro.site.locking import SiteLockService

            self.lock_service: Optional[SiteLockService] = SiteLockService(self)
        else:
            self.lock_service = None
        self.network: Network = None  # type: ignore[assignment] # set by attach()
        # Optional audit probe (repro.chaos.invariants): notified of commit
        # applications and coordinator aborts so protocol invariants can be
        # checked online, as the events happen.
        self.probe = None
        self._recovery_candidates: list[int] = []
        self._recovery_started_at = -1.0
        self._batch_pending: dict[int, list[int]] = {}
        self._type3_started: dict[tuple[int, int], float] = {}
        # The coordinator's phase-table handlers.  COPY_RESP / COPY_DENIED
        # reach theirs unless they answer a batch copier.
        accept = self.coordinator.accept
        self._txn_copy_resp = accept[MessageType.COPY_RESP]
        self._txn_copy_denied = accept[MessageType.COPY_DENIED]
        # Bound once per site, so span wrappers installed on the classes
        # before a site is built are what it binds.
        dispatch = {key: route(self) for key, route in _ROUTES}
        for mtype in _COORDINATOR_ROUTES:
            dispatch[mtype._value_] = accept[mtype]
        for mtype in _PARTICIPANT_ROUTES:
            dispatch[mtype._value_] = self.participant.accept[mtype]
        self._dispatch = dispatch

    def attach(self, network: Network) -> None:
        """Wire the site to its network (done by the cluster builder)."""
        self.network = network
        network.register(self)

    # -- message dispatch ---------------------------------------------------------

    def handle(self, ctx: HandlerContext, msg: Message) -> None:
        fn = self._dispatch.get(msg.mtype._value_)
        if fn is None:
            raise ProtocolError(f"site {self.site_id}: unexpected message {msg}")
        fn(ctx, msg)

    def _on_submit_txn(self, ctx: HandlerContext, msg: Message) -> None:
        self.coordinator.begin(
            ctx, Transaction(txn_id=msg.txn_id, ops=msg.payload["ops"])
        )

    def _on_copy_resp(self, ctx: HandlerContext, msg: Message) -> None:
        if msg.txn_id == BATCH_COPIER_TXN:
            self._on_batch_copy_resp(ctx, msg)
        else:
            self._txn_copy_resp(ctx, msg)

    def _on_copy_denied(self, ctx: HandlerContext, msg: Message) -> None:
        if msg.txn_id == BATCH_COPIER_TXN:
            self._batch_pending.pop(msg.src, None)
            if self.recovery_policy.note_denied(msg.src):
                self._maybe_issue_batch_copiers(ctx)
        else:
            self._txn_copy_denied(ctx, msg)

    def _on_txn_status_req(self, ctx: HandlerContext, msg: Message) -> None:
        """Cooperative termination: a blocked participant asks what became
        of a transaction.  Consult the coordinator role first (it owns the
        decision), then our own participant view (we may have applied the
        outcome as a fellow participant)."""
        status, version = self.coordinator.txn_status(msg.txn_id)
        if status == "unknown":
            status, version = self.participant.txn_status(msg.txn_id)
        ctx.send(
            msg.src,
            MessageType.TXN_STATUS_RESP,
            {"status": status, "version": version},
            txn_id=msg.txn_id,
            session=self.nsv.my_session,
        )

    # -- shared commit processing ----------------------------------------------------

    def commit_writes(
        self,
        ctx: HandlerContext,
        txn_id: int,
        updates: list[tuple[int, int, int]],
        recipients: dict[int, list[int]],
    ) -> None:
        """Apply committed copy updates and do fail-lock maintenance.

        Used by the coordinator (local commit) and participants (phase two)
        alike — the paper incorporates fail-lock processing into the commit
        protocol at every site.

        ``recipients`` maps each written item to the sites the coordinator
        shipped the update to; fail-lock bits are cleared exactly for them
        and set for everyone else.
        """
        if not updates:
            # A read-only commit applies, charges and logs nothing; only
            # the recovery policy's pump is due.
            self._maybe_issue_batch_copiers(ctx)
            return
        # Under partial replication a transaction may write items this
        # site holds no copy of; only local copies are applied.
        now = ctx.now
        written_items = self.db.apply_writes(txn_id, updates, now)
        ctx.cost += self.costs.commit_apply_cost * len(written_items)
        obs = self.network.obs
        if obs.enabled and written_items:
            obs.emit(
                now,
                EventKind.COMMIT_APPLIED,
                site=self.site_id,
                txn=txn_id,
                items=len(written_items),
            )
        if self.config.faillocks_enabled and written_items:
            faillocks = self.faillocks
            site_id = self.site_id
            refreshed = 0
            if faillocks.count_for(site_id):  # O(1); zero in steady state
                for item in written_items:
                    if faillocks.is_locked(item, site_id):
                        refreshed += 1
            ctx.cost += self.costs.faillock_maintenance_cost(
                len(written_items), self.nsv.num_sites
            )
            shipped_to = recipients.get
            faillocks.update_with_recipients(
                {item: shipped_to(item, []) for item in written_items}
            )
            if obs.enabled:
                obs.emit(
                    ctx.now,
                    EventKind.FAILLOCK_UPDATE,
                    site=self.site_id,
                    txn=txn_id,
                    items=len(written_items),
                    refreshed=refreshed,
                )
            if refreshed and self.recovery.in_recovery:
                self.recovery.note_refreshed_by_write(refreshed, ctx.now)
        if self.probe is not None and written_items:
            self.probe.on_commit_applied(self, txn_id, written_items, recipients)
        self._maybe_issue_batch_copiers(ctx)

    # -- copier responder (the 25 ms side of §2.2.3) -----------------------------------

    def _serve_copy_request(self, ctx: HandlerContext, msg: Message) -> None:
        items = msg.payload["items"]
        for item in items:
            if not self.catalog.holds(self.site_id, item) or self.faillocks.is_locked(
                item, self.site_id
            ):
                ctx.send(msg.src, MessageType.COPY_DENIED, {"item": item}, txn_id=msg.txn_id)
                return
        ctx.charge(self.costs.copy_response_cost(len(items)))
        ctx.send(
            msg.src,
            MessageType.COPY_RESP,
            {"copies": self.db.snapshots(sorted(items))},
            txn_id=msg.txn_id,
            session=self.nsv.my_session,
        )

    def _on_clear_faillocks(self, ctx: HandlerContext, msg: Message) -> None:
        """The special transaction: a peer's copier cleared ``items`` of
        ``site``'s fail-locks.  Bits already clear stay clear."""
        owner, items = msg.payload["site"], msg.payload["items"]
        ctx.charge(self.costs.clear_notice_apply_cost)
        self.faillocks.clear_locks(items, owner)
        obs = self.network.obs
        if obs.enabled:
            obs.emit(
                ctx.now,
                EventKind.FAILLOCK_CLEAR,
                site=self.site_id,
                txn=msg.txn_id,
                owner=owner,
                items=len(items),
            )

    # -- batch copiers (two-step and parallel recovery) ---------------------------------

    def _maybe_issue_batch_copiers(self, ctx: HandlerContext) -> None:
        """Send the batch copiers the recovery policy plans now.  Outside a
        recovery period no policy plans any."""
        if not self.recovery.in_recovery:
            return
        for source, batch_items in sorted(self.recovery_policy.pump(ctx).items()):
            self._batch_pending[source] = batch_items
            ctx.charge(self.costs.copy_request_cost)
            ctx.send(
                source,
                MessageType.COPY_REQ,
                {"items": sorted(batch_items)},
                txn_id=BATCH_COPIER_TXN,
                session=self.nsv.my_session,
            )
            self.recovery.note_copier_request(batch=True)
            self.metrics.record_copier(batch=True)

    def _on_batch_copy_resp(self, ctx: HandlerContext, msg: Message) -> None:
        copies = msg.payload["copies"]
        ctx.charge(self.costs.copy_install_cost * len(copies))
        # A copy already as new here is not installed, but its fail-lock
        # is cleared all the same: the local copy is current.
        self.db.install_copies(copies, ctx.now)
        items = [item for item, _v, _ver in copies]
        self.faillocks.clear_locks(items, self.site_id)
        self.recovery.note_refreshed_by_copier(len(copies), ctx.now)
        self._batch_pending.pop(msg.src, None)
        payload = {"site": self.site_id, "items": sorted(items)}
        for peer in self.nsv.operational_peers():
            ctx.charge(self.costs.clear_notice_format_cost)
            ctx.send(peer, MessageType.CLEAR_FAILLOCKS, payload, txn_id=BATCH_COPIER_TXN)
        # Keep draining until recovery completes.
        self._maybe_issue_batch_copiers(ctx)

    # -- control transaction type 2 ------------------------------------------------------
    #
    # Issued by a site that has determined one or more previously
    # operational sites have failed (paper §1.1); the survivors mark them
    # DOWN.  FAILURE_ANNOUNCE {"announcer", "failed", "stale_items"}:
    # ``stale_items`` is corrective fail-lock information for Appendix A's
    # commit-phase case — a participant that died between acking phase one
    # and receiving the commit never applied those items, so the survivors
    # (re)set its bits even though they may have just cleared them while
    # committing.

    def announce_failure(
        self,
        ctx: HandlerContext,
        failed_sites: list[int],
        stale_items: Optional[list[int]] = None,
    ) -> None:
        """Run a type-2 control transaction for ``failed_sites``, with
        ``stale_items`` as its corrective fail-lock information."""
        newly = [
            s for s in failed_sites if self.nsv.state_of(s) is not SiteState.DOWN
        ]
        if not newly and not stale_items:
            return
        obs = self.network.obs
        for site in newly:
            self.nsv.mark_down(site)
            if obs.enabled:
                obs.emit(
                    ctx.now,
                    EventKind.NSV_MARK_DOWN,
                    site=self.site_id,
                    peer=site,
                    role="announcer",
                )
        stale_items = sorted(stale_items or [])
        self._set_corrective_locks(ctx, failed_sites, stale_items)
        payload = {
            "announcer": self.site_id,
            "failed": list(failed_sites),
            "stale_items": stale_items,
        }
        for peer in self.nsv.operational_peers():
            ctx.send(
                peer,
                MessageType.FAILURE_ANNOUNCE,
                payload,
                session=self.nsv.my_session,
            )

    def _on_failure_announce(self, ctx: HandlerContext, msg: Message) -> None:
        # Dated one send before the announcement left: this assumes the
        # announcing activation sent this one message.  E1-T2's type-2 run
        # breaks it (that activation also sends an ABORT); dating it right
        # needs the start carried in the payload.
        started = msg.send_time - self.costs.msg_send_cost
        ctx.charge(self.costs.control2_update_cost)
        failed_sites = msg.payload["failed"]
        nsv = self.nsv
        for site in failed_sites:
            if nsv.state_of(site) is not SiteState.DOWN:
                nsv.mark_down(site)
        obs = self.network.obs
        if obs.enabled:
            for failed in failed_sites:
                obs.emit(
                    ctx.now,
                    EventKind.NSV_MARK_DOWN,
                    site=self.site_id,
                    peer=failed,
                    role="operational",
                )
        self._set_corrective_locks(ctx, failed_sites, msg.payload["stale_items"])
        self._record_control(ctx, 2, "operational", max(started, 0.0))

    def _set_corrective_locks(
        self, ctx: HandlerContext, failed_sites: list[int], stale_items: list[int]
    ) -> None:
        """A type-2 announcement's corrective information: ``failed_sites``
        missed the commit of ``stale_items``, so fail-lock their copies."""
        if not (self.config.faillocks_enabled and stale_items):
            return
        for failed in failed_sites:
            self.faillocks.set_locks(stale_items, failed)
        obs = self.network.obs
        if obs.enabled:
            obs.emit(
                ctx.now,
                EventKind.FAILLOCK_SET,
                site=self.site_id,
                peers=sorted(failed_sites),
                items=len(stale_items),
            )

    def _record_control(
        self, ctx: HandlerContext, kind: int, role: str, started: float
    ) -> None:
        """Record a control transaction's row once this activation's work
        has finished."""

        def record() -> None:
            self.metrics.record_control(
                ControlRecord(
                    kind=kind,
                    site_id=self.site_id,
                    role=role,
                    started_at=started,
                    finished_at=self.network.scheduler.now,
                )
            )

        ctx.on_done(record)

    # -- failure and recovery of this site: control transaction type 1 -------------------
    #
    # Issued by a recovering site (paper §1.1).  It announces the site's new
    # session number to every operational site, so they add it back to
    # their vectors, and obtains from one operational site a copy of the
    # session vector and fail-locks to install locally.
    # RECOVERY_ANNOUNCE {"site", "session", "respond", "cold"} names the one
    # peer that answers; RECOVERY_STATE {"responder", "vector",
    # "faillocks"} ships the vector as ``NominalSessionVector.signature()``
    # rows and the fail-lock table as ``{item: mask}``.

    def _on_fail(self, ctx: HandlerContext, msg: Message) -> None:
        """The managing site ordered a (simulated) crash: stop participating
        in any further system actions.  Under the cold crash model, the
        volatile database (and with it the fail-lock table's content) is
        lost; only the session number survives (it is stable storage)."""
        self.alive = False
        self.nsv.mark_down(self.site_id)
        if self.config.cold_recovery:
            self.db.wipe()
        else:
            self.db.drop_staged()
        # Volatile protocol state dies with the site: in-flight 2PC roles,
        # the lock table, parked lock waiters, copier exchanges, and batch
        # staging.  Decision logs and the coordinator's phase-2 commit
        # records (CommitPhase.RECOVERY) survive as stable storage.
        # Under the serial managing site these containers are always empty
        # here (failures land between transactions); the soak engine
        # crashes sites mid-protocol, where this wipe is what lets
        # post-recovery transactions acquire locks again.
        self.coordinator.crash_reset()
        self.participant.crash_reset()
        if self.lock_service is not None:
            self.lock_service.wipe()
        self._batch_pending.clear()
        self.recovery_policy.crash_reset()
        self._recovery_candidates = []
        obs = self.network.obs
        if obs.enabled:
            obs.emit(
                ctx.now,
                EventKind.SITE_FAIL,
                site=self.site_id,
                cold=self.config.cold_recovery,
            )

    def _on_recover(self, ctx: HandlerContext, msg: Message) -> None:
        """The managing site initiated recovery: run the type-1 control
        transaction (announce the new session, fetch vector + fail-locks)."""
        self.alive = True
        new_session = self.nsv.begin_new_session()
        self._recovery_started_at = ctx.now
        # REDO pass: re-apply commit decisions whose local write was lost
        # when this site crashed mid-phase-2 (the participants applied;
        # only our own copy is stale, and no fail-lock covers it because
        # we were a live recipient at commit time).
        self.coordinator.recover(ctx)
        obs = self.network.obs
        if obs.enabled:
            obs.emit(
                ctx.now,
                EventKind.SITE_RECOVER,
                site=self.site_id,
                new_session=new_session,
            )
        ctx.charge(self.costs.control1_begin_cost)
        peers = [s for s in self.nsv.site_ids if s != self.site_id]
        if not peers:
            self._complete_recovery_solo(ctx)
            return
        # Candidates to answer with state, best-guess order: sites we last
        # knew operational first, then the rest.
        believed_up = [s for s in peers if self.nsv.is_operational(s)]
        believed_down = [s for s in peers if s not in believed_up]
        self._recovery_candidates = believed_up + believed_down
        payload = {
            "site": self.site_id,
            "session": new_session,
            "respond": self._recovery_candidates.pop(0),
            # A cold crash lost every copy: peers must fail-lock our whole
            # database so recovery refreshes all of it.
            "cold": self.config.cold_recovery,
        }
        for peer in peers:
            ctx.send(
                peer,
                MessageType.RECOVERY_ANNOUNCE,
                payload,
                session=new_session,
            )

    def _complete_recovery_solo(self, ctx: HandlerContext) -> None:
        """No peers exist: become operational with our own state."""
        self.nsv.mark_up(self.site_id)
        self.recovery.begin(ctx.now)
        self._record_recovery_done(ctx)

    def _on_recovery_announce(self, ctx: HandlerContext, msg: Message) -> None:
        payload = msg.payload
        recovering, session = payload["site"], payload["session"]
        ctx.charge(self.costs.control1_announce_cost)
        # The announced site becomes operational in our vector: in the
        # serial system no transaction can slip between its announcement
        # and its install, so marking it UP here is equivalent to the
        # paper's "preparing to become operational".
        self.nsv.mark_up(recovering, session)
        obs = self.network.obs
        if obs.enabled:
            obs.emit(
                ctx.now,
                EventKind.NSV_MARK_UP,
                site=self.site_id,
                peer=recovering,
                session=session,
            )
        if payload["cold"]:
            # Cold crash: every copy the site holds is now out of date.
            items = self.catalog.items_on(recovering)
            ctx.charge(self.costs.faillock_bit_cost * len(items))
            self.faillocks.set_locks(items, recovering)
        if payload["respond"] == self.site_id:
            started = ctx.now
            ctx.charge(self.costs.control1_format_cost(len(self.db)))
            ctx.send(
                msg.src,
                MessageType.RECOVERY_STATE,
                {
                    "responder": self.site_id,
                    "vector": self.nsv.signature(),
                    "faillocks": self.faillocks.snapshot(),
                },
                session=self.nsv.my_session,
            )
            self._record_control(ctx, 1, "operational", started)

    def _on_recovery_state(self, ctx: HandlerContext, msg: Message) -> None:
        """Adopt the responder's vector and fail-locks, then mark ourselves
        UP: we are operational, our stale copies named by our own bits."""
        masks = msg.payload["faillocks"]
        # The install cost grows with the database (§2.2.2).
        ctx.charge(self.costs.control1_install_cost(len(masks)))
        self.nsv.install(msg.payload["vector"])
        self.faillocks.install(masks)
        self.nsv.mark_up(self.site_id)
        self.recovery.begin(ctx.now)
        self._record_recovery_done(ctx)
        self._maybe_issue_batch_copiers(ctx)

    def _record_recovery_done(self, ctx: HandlerContext) -> None:
        started = self._recovery_started_at
        obs = self.network.obs
        if obs.enabled:
            obs.emit(
                ctx.now,
                EventKind.SITE_RECOVER_DONE,
                site=self.site_id,
                session=self.nsv.my_session,
                took=ctx.now - started,
            )
        self._record_control(ctx, 1, "recovering", started)
        ctx.send(
            self.config.manager_id,
            MessageType.MGR_RECOVER_DONE,
            {"site": self.site_id, "session": self.nsv.my_session},
        )

    # -- outcomes and bounced messages -----------------------------------------------

    def send_outcome(
        self, txn: Transaction, elapsed: float, copiers: int, clear_notices: int
    ) -> None:
        """Report a finished transaction to the managing site (spawned as a
        fresh activation so the measured window stays closed)."""

        def report(ctx: HandlerContext) -> None:
            ctx.send(
                self.config.manager_id,
                MessageType.MGR_TXN_DONE,
                {
                    "committed": txn.status.value == "committed",
                    "reason": txn.abort_reason.value,
                    "coordinator_elapsed": elapsed,
                    "copiers": copiers,
                    "clear_notices": clear_notices,
                    "size": txn.size,
                    "items_read": len(txn.read_items),
                    "items_written": len(txn.write_items),
                    "submitted_at": txn.submitted_at,
                },
                txn_id=txn.txn_id,
            )

        self.network.spawn(self, report)

    def on_delivery_failed(self, ctx: HandlerContext, msg: Message) -> None:
        """One of our messages bounced off a down or unreachable site."""
        if msg.mtype is MessageType.COPY_REQ and msg.txn_id == BATCH_COPIER_TXN:
            # A batch-copier source died: clear the in-flight slot so the
            # two-step recovery keeps draining via the remaining sources.
            self._batch_pending.pop(msg.dst, None)
            self.announce_failure(ctx, [msg.dst])
            self._maybe_issue_batch_copiers(ctx)
        elif msg.mtype in (
            MessageType.COPY_REQ,
            MessageType.VOTE_REQ,
            MessageType.COMMIT,
        ):
            self.coordinator.on_delivery_failed(ctx, msg)
        elif msg.mtype is MessageType.TXN_STATUS_REQ:
            # A termination-inquiry candidate is unreachable: move on to
            # the next one (no type-2 announcement for an inquiry bounce).
            self.participant.accept[STATUS_REQ_BOUNCED](ctx, msg.txn_id)
        elif msg.mtype is MessageType.RECOVERY_ANNOUNCE:
            if msg.payload["respond"] == msg.dst:
                self._retry_recovery_responder(ctx, msg)
        elif msg.mtype is MessageType.RECOVERY_STATE:
            # The recovering site died again mid-type-1; nothing to do.
            pass
        # FAILURE_ANNOUNCE / CLEAR_FAILLOCKS bounces need no action: the
        # destination is down and will install fresh state on recovery.

    def _retry_recovery_responder(self, ctx: HandlerContext, msg: Message) -> None:
        """Our chosen type-1 responder is down: mark it, try the next.

        Every remaining candidate is tried regardless of what our own
        (stale — we just woke up) session vector says about it: a site we
        last saw down may have recovered while we were away, and its table
        is exactly the fresh knowledge we need.  Only an actual bounce
        advances past a candidate.
        """
        self.announce_failure(ctx, [msg.dst])
        if self._recovery_candidates:
            responder = self._recovery_candidates.pop(0)
            payload = dict(msg.payload)
            payload["respond"] = responder
            ctx.send(
                responder,
                MessageType.RECOVERY_ANNOUNCE,
                payload,
                session=self.nsv.my_session,
            )
            return
        # Nobody left to ask: we are the only site up; recover solo.
        self._complete_recovery_solo(ctx)

    # -- control transaction type 3 (§3.2 proposal, partial replication) -----------------

    def initiate_backup(self, ctx: HandlerContext, item_id: int, target: int) -> None:
        """Type-3 control transaction: ship a backup copy of ``item_id`` to
        ``target``, a site that holds no copy.  Used when this site holds
        the last up-to-date copy (the §3.2 availability proposal)."""
        if self.catalog.holds(target, item_id):
            raise ProtocolError(
                f"site {target} already holds a copy of item {item_id}"
            )
        copy = self.db.get(item_id)
        self._type3_started[(item_id, target)] = ctx.now
        ctx.charge(self.costs.create_copy_cost)
        ctx.send(
            target,
            MessageType.CREATE_COPY,
            {"item": item_id, "value": copy.value, "version": copy.version},
            session=self.nsv.my_session,
        )

    def _on_create_copy(self, ctx: HandlerContext, msg: Message) -> None:
        item = msg.payload["item"]
        ctx.charge(self.costs.create_copy_cost)
        self.db.create_item(item, msg.payload["value"], msg.payload["version"])
        self.catalog.add_copy(item, self.site_id)
        if not self.faillocks.tracks(item):
            self.faillocks.add_item(item)
        ctx.send(msg.src, MessageType.CREATE_COPY_ACK, {"item": item})

    def _on_create_copy_ack(self, ctx: HandlerContext, msg: Message) -> None:
        item = msg.payload["item"]
        started = self._type3_started.pop((item, msg.src), None)
        if started is None:
            return
        self._record_control(ctx, 3, "announcer", started)

    def drop_backup_copy(self, item_id: int) -> None:
        """Remove a type-3 backup copy once it is no longer needed (the
        cleanup cost §3.2 mentions)."""
        self.db.drop_item(item_id)
        self.catalog.remove_copy(item_id, self.site_id)

    def close(self) -> None:
        """Drop what ties this site into cycles once its run is over: the
        dispatch table, both 2PC roles with their bound tables, the
        recovery policy, the period-end hook and the lock service's pointer
        back.  The database, fail-locks,
        ``recovery``, ``lock_service`` and ``probe`` stay readable; the
        site handles nothing afterwards.  Idempotent."""
        if self.coordinator is None:
            return
        self.coordinator.accept.clear()
        self.participant.accept.clear()
        self.coordinator = self.participant = None  # type: ignore[assignment]
        self._dispatch = {}
        self._txn_copy_resp = self._txn_copy_denied = None
        self.recovery_policy = None
        self.recovery.on_period_end = None
        if self.lock_service is not None:
            self.lock_service.close()

    def signature(self) -> tuple:
        """Hashable snapshot of this site's protocol state (``repro.check``).

        Composes the per-layer signatures (database, session vector,
        fail-locks, both 2PC roles, lock table).  Deliberately excludes
        metrics, the redo log, and every wall-clock timestamp: the
        fingerprint must identify states that *behave* identically, not
        states reached at the same instant.
        """
        return (
            self.site_id,
            self.alive,
            self.nsv.signature(),
            self.db.signature(),
            self.faillocks.signature(),
            self.participant.signature(),
            self.coordinator.signature(),
            self.recovery.in_recovery,
            tuple(self._recovery_candidates),
            tuple(
                (source, tuple(items))
                for source, items in sorted(self._batch_pending.items())
            ),
            self.lock_service.manager.signature()
            if self.lock_service is not None
            else None,
        ) + self.recovery_policy.signature()

    def __repr__(self) -> str:
        return (
            f"DatabaseSite(id={self.site_id}, "
            f"{'up' if self.alive else 'down'}, "
            f"session={self.nsv.my_session}, "
            f"stale={self.faillocks.count_for(self.site_id)})"
        )
