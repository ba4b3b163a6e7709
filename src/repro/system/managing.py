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
"""

from __future__ import annotations

from typing import Callable, Optional, TYPE_CHECKING

from repro.core.control import FailureAnnouncement
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

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.system.cluster import Cluster


class ManagingSite(Endpoint):
    """Drives scenarios: failures, recoveries, and serial transactions."""

    def __init__(self, cluster: "Cluster") -> None:
        super().__init__(cluster.config.manager_id)
        self.cluster = cluster
        self.config: SystemConfig = cluster.config
        self.metrics: MetricsCollector = cluster.metrics
        self._rng = cluster.rng.stream("manager")
        self._scenario: Optional[Scenario] = None
        self._seq = 0               # 1-based sequence of the *next* txn
        self._next_txn_id = 0
        self._pending_actions: list[Action] = []
        self._waiting_recovery: Optional[int] = None
        self._in_flight_txn: Optional[int] = None
        self._txn_sizes: dict[int, int] = {}
        # The manager's own view of which sites it has failed/recovered.
        # Site objects flip their ``alive`` flag only when the MGR_FAIL /
        # MGR_RECOVER message is *delivered*, which is after the current
        # activation — so the manager must not read ``site.alive`` when
        # choosing a coordinator in the same breath as a failure action.
        self._believed_up: set[int] = set(self.config.site_ids)
        self.finished = False
        self.on_finish: Optional[Callable[[], None]] = None

    # -- public API ------------------------------------------------------------

    def run(self, scenario: Scenario) -> None:
        """Install ``scenario`` and kick off its first step."""
        scenario.validate()
        if self._scenario is not None and not self.finished:
            raise ConfigurationError("a scenario is already running")
        self._scenario = scenario
        self._seq = 1
        self.finished = False
        self.cluster.network.spawn(self, self._start_next_txn)

    @property
    def up_sites(self) -> list[int]:
        """Database sites the manager believes up, sorted."""
        return sorted(self._believed_up)

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
            self._finish()
            return
        self._pending_actions = list(scenario.actions.get(self._seq, []))
        self._drain_actions(ctx)

    def _drain_actions(self, ctx: HandlerContext) -> None:
        """Run queued actions; pauses (returns) while a recovery is in
        flight and resumes from :meth:`_on_recover_done`."""
        while self._pending_actions:
            action = self._pending_actions.pop(0)
            if isinstance(action, FailSite):
                self._do_fail(ctx, action.site_id)
            elif isinstance(action, RecoverSite):
                self._do_recover(ctx, action.site_id)
                return  # resume when MGR_RECOVER_DONE arrives
            elif isinstance(action, PartitionNetwork):
                self.cluster.network.partitions.partition(
                    [list(group) for group in action.groups]
                )
            elif isinstance(action, HealNetwork):
                self.cluster.network.partitions.heal()
        self._submit(ctx)

    def _do_fail(self, ctx: HandlerContext, site_id: int) -> None:
        """Fail a site; under ANNOUNCED detection, also play the type-2
        announcer so survivors learn immediately (see DESIGN.md)."""
        ctx.send(site_id, MessageType.MGR_FAIL, {})
        self._believed_up.discard(site_id)
        if self.config.detection is FailureDetection.ANNOUNCED:
            announcement = FailureAnnouncement(
                announcer=self.site_id, failed_sites=[site_id]
            )
            for peer in self.up_sites:
                if peer != site_id:
                    ctx.send(
                        peer, MessageType.FAILURE_ANNOUNCE, announcement.to_payload()
                    )

    def _do_recover(self, ctx: HandlerContext, site_id: int) -> None:
        self._waiting_recovery = site_id
        ctx.send(site_id, MessageType.MGR_RECOVER, {})

    def _on_recover_done(self, ctx: HandlerContext, msg: Message) -> None:
        if msg.payload.get("site") != self._waiting_recovery:
            return  # a recovery we did not initiate (or a duplicate)
        self._believed_up.add(msg.payload["site"])
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
        ops = scenario.workload.generate(self._seq, self._rng)
        self._next_txn_id += 1
        txn_id = self._next_txn_id
        self._in_flight_txn = txn_id
        self._txn_sizes[txn_id] = len(ops)
        obs = self.cluster.network.obs
        if obs.enabled:
            obs.emit(
                ctx.now,
                EventKind.TXN_SUBMIT,
                site=self.site_id,
                txn=txn_id,
                seq=self._seq,
                coordinator=coordinator,
            )
        ctx.charge(self.config.costs.manager_cost)
        ctx.send(
            coordinator,
            MessageType.MGR_SUBMIT_TXN,
            {"ops": [(op.kind, op.item_id) for op in ops], "coordinator": coordinator},
            txn_id=txn_id,
        )

    def _on_txn_done(self, ctx: HandlerContext, msg: Message) -> None:
        if msg.txn_id != self._in_flight_txn:
            return  # a straggler from an aborted run
        self._in_flight_txn = None
        record = TxnRecord.from_done(
            msg,
            seq=self._seq,
            submitted_at=msg.payload["submitted_at"],
            finished_at=ctx.now,
            participant_elapsed=self.metrics.pop_participants(msg.txn_id),
        )
        self.metrics.record_txn(record)
        self._sample_faillocks(ctx.now)
        self._seq += 1
        self._start_next_txn(ctx)

    def _sample_faillocks(self, time: float) -> None:
        """Record every site's fail-lock count, as seen by the best-informed
        table (the lowest-id operational site)."""
        observer = self.cluster.observer_site()
        if observer is None:
            return
        locks = {
            site: observer.faillocks.count_for(site)
            for site in self.config.site_ids
        }
        self.metrics.record_faillock_sample(
            FailLockSample(seq=self._seq, time=time, locks_per_site=locks)
        )

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
        observer = self.cluster.observer_site()
        if observer is None:
            return True
        return all(
            observer.faillocks.count_for(site) == 0
            for site in scenario.until_recovered
        )

    def _finish(self) -> None:
        self.finished = True
        if self.on_finish is not None:
            self.on_finish()

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
