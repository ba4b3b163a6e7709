"""Step-at-a-time driving of a cluster (the console's engine).

The paper's managing site "provide[d] interactive control of system
actions ... to cause sites to fail and recover and to initiate a database
transaction to a site".  :class:`InteractiveDriver` is that control
surface as an API: each call injects one action and runs the simulator to
quiescence, so a human (via :mod:`repro.console`) or a test can poke the
system one step at a time.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError, ProtocolError
from repro.metrics.records import FailLockSample, TxnRecord
from repro.net.endpoint import Endpoint, HandlerContext
from repro.net.message import Message, MessageType
from repro.system.cluster import Cluster
from repro.system.config import FailureDetection, SystemConfig
from repro.core.control import FailureAnnouncement
from repro.txn.operations import Operation
from repro.workload.base import WorkloadGenerator
from repro.workload.uniform import UniformWorkload


class InteractiveDriver(Endpoint):
    """A managing site driven one action at a time."""

    def __init__(self, cluster: Cluster, workload: Optional[WorkloadGenerator] = None):
        super().__init__(cluster.config.manager_id)
        self.cluster = cluster
        self.config = cluster.config
        self.metrics = cluster.metrics
        self.workload = workload if workload is not None else UniformWorkload(
            cluster.config.item_ids, cluster.config.max_txn_size
        )
        self._rng = cluster.rng.stream("interactive")
        self._believed_up = set(cluster.config.site_ids)
        self._next_txn_id = 0
        self._seq = 0
        self._last_outcome: Optional[TxnRecord] = None
        self._recovery_done: Optional[int] = None
        cluster.network.replace_endpoint(self)

    @classmethod
    def build(
        cls,
        db_size: int = 50,
        num_sites: int = 4,
        max_txn_size: int = 10,
        seed: int = 42,
    ) -> "InteractiveDriver":
        """Convenience: a fresh cluster with the given shape."""
        config = SystemConfig(
            db_size=db_size, num_sites=num_sites, max_txn_size=max_txn_size, seed=seed
        )
        return cls(Cluster(config))

    # -- endpoint ------------------------------------------------------------

    def handle(self, ctx: HandlerContext, msg: Message) -> None:
        if msg.mtype is MessageType.MGR_TXN_DONE:
            self._seq += 1
            record = TxnRecord.from_done(
                msg,
                seq=self._seq,
                submitted_at=msg.payload["submitted_at"],
                finished_at=ctx.now,
                participant_elapsed=self.metrics.pop_participants(msg.txn_id),
            )
            self.metrics.record_txn(record)
            self._sample(ctx.now)
            self._last_outcome = record
        elif msg.mtype is MessageType.MGR_RECOVER_DONE:
            self._recovery_done = msg.payload.get("site")
        else:
            raise ProtocolError(f"interactive driver: unexpected message {msg}")

    def _sample(self, time: float) -> None:
        observer = self.cluster.observer_site()
        if observer is None:
            return
        self.metrics.record_faillock_sample(
            FailLockSample(
                seq=self._seq,
                time=time,
                locks_per_site={
                    s: observer.faillocks.count_for(s)
                    for s in self.config.site_ids
                },
            )
        )

    # -- actions -----------------------------------------------------------------

    @property
    def up_sites(self) -> list[int]:
        """Sites the driver believes up, sorted."""
        return sorted(self._believed_up)

    def submit_txn(
        self, site: Optional[int] = None, ops: Optional[list[Operation]] = None
    ) -> TxnRecord:
        """Submit one transaction and run it to completion."""
        if not self._believed_up:
            raise ConfigurationError("no site is up")
        if site is None:
            site = self._rng.choice(self.up_sites)
        if site not in self._believed_up:
            raise ConfigurationError(f"site {site} is down")
        if ops is None:
            ops = self.workload.generate(self._seq + 1, self._rng)
        self._next_txn_id += 1
        txn_id = self._next_txn_id
        self._last_outcome = None

        def go(ctx: HandlerContext) -> None:
            ctx.send(
                site,
                MessageType.MGR_SUBMIT_TXN,
                {"ops": [(op.kind, op.item_id) for op in ops]},
                txn_id=txn_id,
            )

        self.cluster.network.spawn(self, go)
        self.cluster.scheduler.run()
        if self._last_outcome is None:
            raise ProtocolError(f"transaction {txn_id} never completed")
        return self._last_outcome

    def run_txns(self, count: int) -> list[TxnRecord]:
        """Submit ``count`` transactions serially."""
        return [self.submit_txn() for _ in range(count)]

    def fail_site(self, site: int) -> None:
        """Fail ``site`` (announced to survivors, as the paper's managing
        site effectively did)."""
        if site not in self._believed_up:
            raise ConfigurationError(f"site {site} is already down")
        self._believed_up.discard(site)

        def go(ctx: HandlerContext) -> None:
            ctx.send(site, MessageType.MGR_FAIL, {})
            if self.config.detection is FailureDetection.ANNOUNCED:
                announcement = FailureAnnouncement(
                    announcer=self.site_id, failed_sites=[site]
                )
                for peer in self.up_sites:
                    ctx.send(
                        peer, MessageType.FAILURE_ANNOUNCE, announcement.to_payload()
                    )

        self.cluster.network.spawn(self, go)
        self.cluster.scheduler.run()

    def recover_site(self, site: int) -> None:
        """Recover ``site`` (runs the type-1 control transaction)."""
        if site in self._believed_up:
            raise ConfigurationError(f"site {site} is already up")
        self._recovery_done = None
        self.cluster.network.spawn(
            self, lambda ctx: ctx.send(site, MessageType.MGR_RECOVER, {})
        )
        self.cluster.scheduler.run()
        if self._recovery_done != site:
            raise ProtocolError(f"site {site} recovery did not complete")
        self._believed_up.add(site)

    # -- inspection ------------------------------------------------------------------

    def status(self) -> list[dict]:
        """One row per site: alive, session, stale copies."""
        counts = self.cluster.faillock_counts()
        return [
            {
                "site": s.site_id,
                "alive": s.alive,
                "session": s.nsv.my_session,
                "stale": counts[s.site_id],
            }
            for s in self.cluster.sites
        ]

    def chart(self) -> str:
        """ASCII chart of the fail-lock history so far."""
        from repro.viz.ascii_chart import render_series

        series = {
            f"site {s}": [
                (float(x), float(y)) for x, y in self.metrics.faillock_series(s)
            ]
            for s in self.config.site_ids
        }
        return render_series(series, title="fail-locks so far")
