"""The managing site (paper §1.2).

"We implemented a managing site to provide interactive control of system
actions.  It was used to cause sites to fail and recover and to initiate a
database transaction to a site."

Here the managing site runs a :class:`~repro.system.scenario.Scenario`:
before each transaction it applies the scheduled fail/recover/partition
actions, then generates the transaction, submits it to the coordinator the
submission policy picks, and — when the outcome comes back — records the
measurement row and samples the fail-lock tables (the instrumentation the
paper's figures are drawn from).

The paper has one managing site; this repo drives clusters four ways
(serial scenarios here, :mod:`repro.system.openloop`,
:mod:`repro.soak.engine`, :mod:`repro.system.interactive`).  What they
all do — submit, fail, recover, settle — is :class:`ControlPlane`; each
driver subclasses it and adds only its arrival policy.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.errors import ConfigurationError, ProtocolError
from repro.metrics.collector import MetricsCollector
from repro.metrics.records import FailLockSample, TxnRecord
from repro.net.endpoint import Endpoint, HandlerContext
from repro.net.message import Message, MessageType
from repro.obs.events import EventKind
from repro.system.config import FailureDetection, SystemConfig
from repro.system.scenario import (
    Action,
    FailSite,
    HealNetwork,
    PartitionNetwork,
    RecoverSite,
    Scenario,
)
from repro.workload.base import WorkloadGenerator

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.system.cluster import Cluster


class ControlPlane(Endpoint):
    """The managing site's verbs, shared by every driver.

    Subclasses decide *when* to submit, fail and recover and implement
    ``handle``; what each verb puts on the wire and into the metrics is
    said here once.
    """

    def __init__(self, cluster: "Cluster", rng_stream: str) -> None:
        super().__init__(cluster.config.manager_id)
        self.cluster = cluster
        self.config: SystemConfig = cluster.config
        self.metrics: MetricsCollector = cluster.metrics
        self._rng = cluster.rng.stream(rng_stream)
        # The manager's own view of which sites it has failed/recovered.
        # Site objects flip their ``alive`` flag only when the MGR_FAIL /
        # MGR_RECOVER message is *delivered*, which is after the current
        # activation — so a driver must not read ``site.alive`` when
        # choosing a coordinator in the same breath as a failure action.
        self._believed_up: set[int] = set(self.config.site_ids)
        # Sorted once per change of the set, not once per arrival.
        self._up_sorted = sorted(self._believed_up)

    @property
    def up_sites(self) -> list[int]:
        """Database sites the manager believes up, sorted (shared: do not
        mutate)."""
        return self._up_sorted

    def submit(
        self, ctx: HandlerContext, txn_id: int, ops, coordinator: int, seq: int
    ) -> None:
        """Hand transaction ``txn_id`` to ``coordinator``."""
        obs = self.cluster.network.obs
        if obs.enabled:
            obs.emit(
                ctx.now,
                EventKind.TXN_SUBMIT,
                site=self.site_id,
                txn=txn_id,
                seq=seq,
                coordinator=coordinator,
            )
        # "coordinator" repeats the destination; no site reads it, but
        # repro.check hashes in-flight payloads into its pinned fingerprints
        # (where an Operation canonicalizes as its (kind, item) tuple).
        ctx.send(
            coordinator,
            MessageType.MGR_SUBMIT_TXN,
            {"ops": list(ops), "coordinator": coordinator},
            txn_id=txn_id,
        )

    def fail(self, ctx: HandlerContext, site_id: int) -> None:
        """Fail a site; under ANNOUNCED detection, also play the type-2
        announcer so survivors learn immediately (see DESIGN.md)."""
        ctx.send(site_id, MessageType.MGR_FAIL, {})
        self._believed_up.discard(site_id)
        self._up_sorted = sorted(self._believed_up)
        if self.config.detection is FailureDetection.ANNOUNCED:
            payload = {"announcer": self.site_id, "failed": [site_id], "stale_items": []}
            for peer in self.up_sites:
                ctx.send(peer, MessageType.FAILURE_ANNOUNCE, payload)

    def recover(self, ctx: HandlerContext, site_id: int) -> None:
        """Start ``site_id``'s recovery; it stays believed down until
        :meth:`recover_done` sees its ``MGR_RECOVER_DONE``."""
        ctx.send(site_id, MessageType.MGR_RECOVER, {})

    def recover_done(self, msg: Message) -> int:
        """Re-admit the site a ``MGR_RECOVER_DONE`` names; returns it."""
        site_id = msg.payload["site"]
        self._believed_up.add(site_id)
        self._up_sorted = sorted(self._believed_up)
        return site_id

    def settle(
        self, ctx: HandlerContext, msg: Message, seq: int, submitted_at: float
    ) -> TxnRecord:
        """Record the outcome a ``MGR_TXN_DONE`` reports."""
        record = TxnRecord.from_done(
            msg,
            seq=seq,
            submitted_at=submitted_at,
            finished_at=ctx.now,
            participant_elapsed=self.metrics.pop_participants(msg.txn_id),
        )
        self.metrics.record_txn(record)
        return record

    def sample_faillocks(self, seq: int, time: float) -> None:
        """Record every site's fail-lock count, as seen by the best-informed
        table (the lowest-id operational site); no sample while every site
        is down."""
        cluster = self.cluster
        if cluster.observer_site() is None:
            return
        self.metrics.record_faillock_sample(
            FailLockSample(
                seq=seq, time=time, locks_per_site=cluster.faillock_counts()
            )
        )


class ManagingSite(ControlPlane):
    """Drives scenarios: failures, recoveries, and serial transactions."""

    def __init__(self, cluster: "Cluster") -> None:
        super().__init__(cluster, "manager")
        self._scenario: Optional[Scenario] = None
        self._workload: Optional[WorkloadGenerator] = None
        self._seq = 0               # 1-based sequence of the *next* txn
        self._next_txn_id = 0
        self._pending_actions: list[Action] = []
        self._waiting_recovery: Optional[int] = None
        self._in_flight_txn: Optional[int] = None
        self.finished = False

    # -- public API ------------------------------------------------------------

    def run(self, scenario: Scenario) -> None:
        """Install ``scenario`` and kick off its first step."""
        scenario.validate()
        if self._scenario is not None and not self.finished:
            raise ConfigurationError("a scenario is already running")
        self._scenario = scenario
        self._workload = (
            scenario.workload
            if scenario.workload is not None
            else self.config.paper_workload()
        )
        self._seq = 1
        self.finished = False
        self.cluster.network.spawn(self, self._start_next_txn)

    # -- message handling ---------------------------------------------------------

    def handle(self, ctx: HandlerContext, msg: Message) -> None:
        if msg.mtype is MessageType.MGR_TXN_DONE:
            self._on_txn_done(ctx, msg)
        elif msg.mtype is MessageType.MGR_RECOVER_DONE:
            self._on_recover_done(ctx, msg)
        else:
            raise ProtocolError(f"managing site: unexpected message {msg}")

    # -- the serial drive loop -------------------------------------------------------

    def _start_next_txn(self, ctx: HandlerContext) -> None:
        """Apply this sequence number's actions, then submit the txn."""
        scenario = self._scenario
        assert scenario is not None
        if self._stop_reached():
            self.finished = True
            return
        self._pending_actions = list(scenario.actions.get(self._seq, []))
        self._drain_actions(ctx)

    def _drain_actions(self, ctx: HandlerContext) -> None:
        """Run queued actions; pauses (returns) while a recovery is in
        flight and resumes from :meth:`_on_recover_done`."""
        while self._pending_actions:
            action = self._pending_actions.pop(0)
            if isinstance(action, FailSite):
                self.fail(ctx, action.site_id)
            elif isinstance(action, RecoverSite):
                self._waiting_recovery = action.site_id
                self.recover(ctx, action.site_id)
                return  # resume when MGR_RECOVER_DONE arrives
            elif isinstance(action, PartitionNetwork):
                self.cluster.network.partitions.partition(
                    [list(group) for group in action.groups]
                )
            elif isinstance(action, HealNetwork):
                self.cluster.network.partitions.heal()
        self._submit(ctx)

    def _on_recover_done(self, ctx: HandlerContext, msg: Message) -> None:
        if msg.payload.get("site") != self._waiting_recovery:
            return  # a recovery we did not initiate (or a duplicate)
        self.recover_done(msg)
        self._waiting_recovery = None
        self._drain_actions(ctx)

    def _submit(self, ctx: HandlerContext) -> None:
        scenario = self._scenario
        assert scenario is not None
        up = self.up_sites
        if not up:
            raise ProtocolError(
                f"no site is up to coordinate transaction {self._seq}"
            )
        coordinator = scenario.policy.choose(self._seq, up, self._rng)
        if coordinator not in up:
            raise ConfigurationError(
                f"policy chose down site {coordinator} for txn {self._seq}"
            )
        ops = self._workload.generate(self._seq, self._rng)
        self._next_txn_id += 1
        txn_id = self._next_txn_id
        self._in_flight_txn = txn_id
        self.submit(ctx, txn_id, ops, coordinator, self._seq)

    def _on_txn_done(self, ctx: HandlerContext, msg: Message) -> None:
        if msg.txn_id != self._in_flight_txn:
            return  # a straggler from an aborted run
        self._in_flight_txn = None
        self.settle(ctx, msg, self._seq, msg.payload["submitted_at"])
        self.sample_faillocks(self._seq, ctx.now)
        self._seq += 1
        self._start_next_txn(ctx)

    # -- stopping -------------------------------------------------------------------

    def _stop_reached(self) -> bool:
        scenario = self._scenario
        assert scenario is not None
        done_count = self._seq - 1
        if done_count >= scenario.max_txns:
            return True
        if done_count < scenario.txn_count:
            return False
        if not scenario.until_recovered:
            return True
        locks = self.cluster.faillock_counts()
        return all(locks[site] == 0 for site in scenario.until_recovered)

    def signature(self) -> tuple:
        """Hashable snapshot of drive-loop progress (``repro.check``)."""
        return (
            self._seq,
            self._next_txn_id,
            tuple(sorted(self._believed_up)),
            self._waiting_recovery,
            self._in_flight_txn,
            self.finished,
        )

    def __repr__(self) -> str:
        return (
            f"ManagingSite(next_seq={self._seq}, finished={self.finished}, "
            f"up={self.up_sites})"
        )
