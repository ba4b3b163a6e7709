"""Open-loop concurrent transaction driver (the "complete RAID" mode).

Mini-RAID's managing site submitted transactions one at a time.  The
complete-RAID extension replaces it with an open-loop source: transactions
arrive as a Poisson process at a configurable rate, many are in flight at
once, sites run strict 2PL (see :mod:`repro.site.locking`), and a global
detector resolves deadlocks (see :mod:`repro.system.deadlock`).

``run_open_loop`` is the entry point; it wires a cluster with
``concurrency_control=True``, drives the workload, and returns throughput,
latency, and conflict statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError, ProtocolError, SimulationError
from repro.metrics.collector import MetricsCollector
from repro.metrics.records import TxnRecord
from repro.metrics.stats import Summary, summarize
from repro.metrics.streaming import StreamingTxnSink
from repro.net.endpoint import HandlerContext
from repro.net.message import Message, MessageType
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.system.managing import ControlPlane
from repro.txn.transaction import AbortReason
from repro.workload.base import WorkloadGenerator

# Mean of the exponential backoff before a deadlock victim is resubmitted.
RETRY_BACKOFF_MS = 50.0


@dataclass(slots=True)
class OpenLoopResult:
    """Outcome of one open-loop run."""

    txn_count: int
    commits: int
    aborts: int
    deadlock_aborts: int
    deadlocks_detected: int
    elapsed_ms: float
    latency: Summary
    lock_parks: int
    retries: int = 0
    # Scheduler events fired during the run (benchmark denominator).
    events_fired: int = 0
    records: list[TxnRecord] = field(repr=False, default_factory=list)

    @property
    def throughput_tps(self) -> float:
        """Committed transactions per simulated second."""
        if self.elapsed_ms <= 0:
            return 0.0
        return self.commits / (self.elapsed_ms / 1000.0)


class OpenLoopManager(ControlPlane):
    """Submits transactions at Poisson arrivals; collects outcomes."""

    def __init__(self, cluster: Cluster, deadlock_retries: int = 0) -> None:
        super().__init__(cluster, "openloop")
        self.finished = False
        self.deadlock_retries = deadlock_retries
        self.retries_issued = 0
        self._expected = 0
        self._done = 0
        # Per unsettled attempt: submit time, ops and retries left.
        self._submit_times: dict[int, float] = {}
        self._attempt_ops: dict[int, list] = {}
        self._attempts_left: dict[int, int] = {}
        self._next_id = 0

    def launch(
        self,
        workload: WorkloadGenerator,
        txn_count: int,
        arrival_rate_tps: float,
    ) -> None:
        """Schedule ``txn_count`` arrivals at ``arrival_rate_tps``, each at
        a uniform-random coordinator."""
        if txn_count < 1:
            raise ConfigurationError(f"txn_count must be >= 1: {txn_count}")
        if arrival_rate_tps <= 0:
            raise ConfigurationError(
                f"arrival rate must be positive: {arrival_rate_tps}"
            )
        self._expected = txn_count
        self._next_id = txn_count  # retry attempts get ids past the range
        mean_gap_ms = 1000.0 / arrival_rate_tps
        at = 0.0
        for seq in range(1, txn_count + 1):
            at += self._rng.expovariate(1.0 / mean_gap_ms)
            ops = workload.generate(seq, self._rng)
            site = self._rng.choice(self.config.site_ids)
            self._attempt_ops[seq] = ops
            self._attempts_left[seq] = self.deadlock_retries
            self.cluster.network.spawn(
                self,
                lambda ctx, s=seq, o=ops, dst=site: self._submit(ctx, s, o, dst),
                delay=at,
            )

    def _submit(self, ctx: HandlerContext, seq: int, ops, dst: int) -> None:
        self._submit_times[seq] = ctx.now
        self.submit(ctx, seq, ops, dst, seq)

    def handle(self, ctx: HandlerContext, msg: Message) -> None:
        if msg.mtype is not MessageType.MGR_TXN_DONE:
            raise ProtocolError(f"open-loop manager: unexpected message {msg}")
        txn_id = msg.txn_id
        record = self.settle(
            ctx,
            msg,
            txn_id,
            self._submit_times.pop(txn_id, msg.payload["submitted_at"]),
        )
        if (
            not record.committed
            and record.abort_reason is AbortReason.LOCK_DEADLOCK
            and self._attempts_left.get(txn_id, 0) > 0
        ):
            self._retry(ctx, txn_id)
            return
        self._attempt_ops.pop(txn_id, None)
        self._attempts_left.pop(txn_id, None)
        self._done += 1
        if self._done >= self._expected:
            self.finished = True

    def _retry(self, ctx: HandlerContext, old_id: int) -> None:
        """Resubmit a deadlock victim as a fresh attempt after a backoff."""
        self._next_id += 1
        new_id = self._next_id
        ops = self._attempt_ops.pop(old_id)
        self._attempt_ops[new_id] = ops
        self._attempts_left[new_id] = self._attempts_left.pop(old_id) - 1
        self.retries_issued += 1
        site = self._rng.choice(self.config.site_ids)
        backoff = self._rng.expovariate(1.0 / RETRY_BACKOFF_MS)
        self.cluster.network.spawn(
            self,
            lambda ctx2, s=new_id, o=ops, dst=site: self._submit(ctx2, s, o, dst),
            delay=backoff,
        )


def run_open_loop(
    config: SystemConfig,
    workload: Optional[WorkloadGenerator] = None,
    txn_count: int = 200,
    arrival_rate_tps: float = 20.0,
    deadlock_retries: int = 0,
    keep_records: bool = True,
) -> OpenLoopResult:
    """Run a concurrent open-loop workload and return its statistics.

    ``config.concurrency_control`` must be on; without locks, concurrent
    2PC interleavings would not be serializable.

    ``keep_records=False`` routes every transaction outcome through a
    streaming sink instead of retaining ``TxnRecord`` objects: the result's
    ``records`` list is empty, ``latency`` comes from an online quantile
    sketch (see :mod:`repro.metrics.sketch` for the error bound), and a
    transaction's bookkeeping goes when it settles.  The simulation itself
    is identical — only the measurement pipeline changes.  Memory still
    grows with ``txn_count``: every arrival (time, operations,
    coordinator) is drawn and scheduled up front.
    """
    sink: Optional[StreamingTxnSink] = None
    metrics: Optional[MetricsCollector] = None
    if not keep_records:
        sink = StreamingTxnSink()
        metrics = MetricsCollector(txn_sink=sink)
    with Cluster(config, metrics=metrics) as cluster:
        detector = cluster.install_deadlock_detector()

        # Replace the serial managing site with the open-loop source.
        manager = OpenLoopManager(cluster, deadlock_retries=deadlock_retries)
        cluster.network.replace_endpoint(manager)

        if workload is None:
            workload = config.paper_workload()
        manager.launch(workload, txn_count, arrival_rate_tps)
        cluster.scheduler.run()
        if not manager.finished:
            raise SimulationError(
                f"open-loop run stalled: {manager._done}/{txn_count} outcomes"
            )

        metrics = cluster.metrics
        if sink is None:
            latency = summarize([t.elapsed for t in metrics.committed])
            deadlock_aborts = sum(
                1 for t in metrics.aborted if t.abort_reason is AbortReason.LOCK_DEADLOCK
            )
        else:
            latency = sink.latency_committed.to_summary()
            deadlock_aborts = sink.abort_count(AbortReason.LOCK_DEADLOCK.value)
        consistency = cluster.audit_consistency()
        if consistency:
            raise SimulationError(f"consistency violated: {consistency[:3]}")
        return OpenLoopResult(
            txn_count=txn_count,
            commits=metrics.counters.get("commits"),
            aborts=metrics.counters.get("aborts"),
            deadlock_aborts=deadlock_aborts,
            deadlocks_detected=detector.deadlocks_found,
            elapsed_ms=cluster.now,
            latency=latency,
            lock_parks=cluster.lock_parks(),
            retries=manager.retries_issued,
            events_fired=cluster.scheduler.fired,
            records=metrics.txns,
        )
