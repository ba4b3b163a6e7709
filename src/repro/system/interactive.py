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
from repro.metrics.records import TxnRecord
from repro.net.endpoint import HandlerContext
from repro.net.message import Message, MessageType
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.system.managing import ControlPlane
from repro.txn.operations import Operation
from repro.workload.base import WorkloadGenerator
from repro.workload.uniform import UniformWorkload


class InteractiveDriver(ControlPlane):
    """A managing site driven one action at a time."""

    def __init__(self, cluster: Cluster, workload: Optional[WorkloadGenerator] = None):
        super().__init__(cluster, "interactive")
        self.workload = workload if workload is not None else UniformWorkload(
            cluster.config.item_ids, cluster.config.max_txn_size
        )
        self._next_txn_id = 0
        self._seq = 0
        self._last_outcome: Optional[TxnRecord] = None
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
            self._last_outcome = self.settle(
                ctx, msg, self._seq, msg.payload["submitted_at"]
            )
            self.sample_faillocks(self._seq, ctx.now)
        elif msg.mtype is MessageType.MGR_RECOVER_DONE:
            self.recover_done(msg)
        else:
            raise ProtocolError(f"interactive driver: unexpected message {msg}")

    # -- actions -----------------------------------------------------------------

    def _run(self, action) -> None:
        """One step: run ``action`` as an activation, then to quiescence."""
        self.cluster.network.spawn(self, action)
        self.cluster.scheduler.run()

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
        self._run(lambda ctx: self.submit(ctx, txn_id, ops, site, self._seq + 1))
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
        self._run(lambda ctx: self.fail(ctx, site))

    def recover_site(self, site: int) -> None:
        """Recover ``site`` (runs the type-1 control transaction)."""
        if site in self._believed_up:
            raise ConfigurationError(f"site {site} is already up")
        self._run(lambda ctx: self.recover(ctx, site))
        if site not in self._believed_up:
            raise ProtocolError(f"site {site} recovery did not complete")

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
        from repro.viz.ascii_chart import render_series, site_series

        series = {s: self.metrics.faillock_series(s) for s in self.config.site_ids}
        return render_series(site_series(series), title="fail-locks so far")
