"""The soak run driver: sustained open-loop load through site failure.

Differences from :class:`repro.system.openloop.OpenLoopManager`, all
forced by scale and by mid-flight failures:

* arrivals are scheduled one at a time (the next arrival is drawn when
  the previous one fires), so the scheduler's heap stays O(in-flight)
  instead of O(txn_count), and each transaction's operations are
  generated *at submission time* — which is what lets load shapes and
  hot-key storms depend on the clock;
* the coordinator for each transaction is chosen among the sites the
  manager currently believes up, and transactions that were in flight at
  a coordinator when it crashed are recorded as
  ``AbortReason.COORDINATOR_FAILED`` aborts (the client-visible outcome);
* every outcome flows through a :class:`repro.metrics.streaming.StreamingTxnSink`
  instead of a growing record list.

The simulation core is untouched: sites, 2PC, fail-locks, and recovery
behave exactly as in every other mode, and
``SystemConfig(timeouts_enabled=True)`` supplies the cooperative
termination that lets orphaned participants resolve blocked transactions
(see docs/SOAK.md for why a soak run requires it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError, ProtocolError, SimulationError, lookup
from repro.core.recovery import RecoveryPolicy
from repro.metrics.collector import MetricsCollector
from repro.metrics.records import TxnRecord
from repro.metrics.streaming import StreamingTxnSink, Window
from repro.net.endpoint import HandlerContext
from repro.net.message import Message, MessageType
from repro.system.cluster import Cluster
from repro.system.config import FailureDetection, SystemConfig
from repro.system.managing import ControlPlane
from repro.txn.transaction import AbortReason
from repro.workload.base import WorkloadGenerator
from repro.workload.shapes import (
    ConstantShape,
    DebitCreditWorkload,
    DiurnalShape,
    FlashCrowdShape,
    HotKeyStormWorkload,
    LoadShape,
    RampShape,
    next_arrival_ms,
)
from repro.workload.uniform import UniformWorkload
from repro.workload.wisconsin import WisconsinWorkload
from repro.workload.zipf import ZipfWorkload

__all__ = ["LOAD_SHAPES", "SOAK_WORKLOADS", "SoakConfig", "SoakResult", "run_soak"]

# Load shapes by name, each built from the config and its peak rate.
LOAD_SHAPES = {
    "constant": lambda c, peak: ConstantShape(c.rate_tps),
    "ramp": lambda c, peak: RampShape(c.rate_tps, peak, c.period_ms),
    "diurnal": lambda c, peak: DiurnalShape(c.rate_tps, peak, c.period_ms),
    "flash": lambda c, peak: FlashCrowdShape(
        c.rate_tps, peak, at_ms=c.period_ms,
        rise_ms=max(c.period_ms / 20.0, 1.0), fall_ms=max(c.period_ms / 4.0, 1.0),
    ),
}

# Workloads (item popularity / op mix) by name, each built from the config
# and the cluster's item ids.  Wisconsin's scans are sized to the
# transaction cap (shared-lock pressure over contiguous ranges) beside
# point updates (the write conflicts).
SOAK_WORKLOADS = {
    "uniform": lambda c, items: UniformWorkload(items, c.max_txn_size),
    "zipf": lambda c, items: ZipfWorkload(items, c.max_txn_size, skew=c.skew),
    "storm": lambda c, items: HotKeyStormWorkload(
        items, c.max_txn_size, skew=c.skew, storm_every_ms=c.storm_every_ms,
    ),
    "debitcredit": lambda c, items: DebitCreditWorkload(items),
    "wisconsin": lambda c, items: WisconsinWorkload(
        items, scan_length=min(c.max_txn_size, len(items)), update_count=1,
        scan_fraction=c.read_fraction,
    ),
}


@dataclass(slots=True)
class SoakConfig:
    """One soak run, fully determined by these knobs plus the seed."""

    seed: int = 0
    txns: int = 5_000
    rate_tps: float = 25.0
    # Load shape, a name in LOAD_SHAPES.  ``peak_tps`` defaults to 2x the
    # base rate for the non-constant shapes; ``period_ms`` is the diurnal
    # period, the ramp duration, and the flash-crowd onset time.
    shape: str = "constant"
    peak_tps: Optional[float] = None
    period_ms: float = 20_000.0
    # Item popularity / op mix, a name in SOAK_WORKLOADS.
    workload: str = "zipf"
    skew: float = 0.8
    storm_every_ms: float = 10_000.0
    # Wisconsin mix only: fraction of transactions that are read scans.
    read_fraction: float = 0.7
    # Cluster dimensions (mirrors the open-loop defaults used in perf runs).
    num_sites: int = 4
    db_size: int = 128
    max_txn_size: int = 5
    cores: int = 5
    wire_latency_ms: float = 9.0
    # A FailureDetection value: "timeout" (survivors learn of the crash
    # only via bounced messages — the client-visible availability dip the
    # paper's §3 asks about) or "announced" (type-2 announcement hides it).
    detection: str = "timeout"
    # A RecoveryPolicy value for the failed site's catch-up.  The default
    # keeps soak reports byte-identical to earlier revisions; non-default
    # values add a recoveries section.
    recovery_policy: str = "on_demand"
    # Streaming metrics.  ``window_ms`` is the *minimum* window width:
    # when the estimated run would produce more than ``max_windows``
    # windows, the width is widened up-front so the series length — and
    # with it total memory — stays bounded no matter how long the run
    # (the windowed series is the one per-duration structure in a soak).
    window_ms: float = 1_000.0
    max_windows: int = 240
    rel_err: float = 0.01
    exemplars: int = 20
    # Fail/recover cycle.  ``fail_site=None`` disables fault injection;
    # ``fail_at_ms``/``recover_at_ms`` default to ~35% / ~60% of the
    # estimated run duration so the series shows a pre-fail baseline, the
    # dip, and the post-recovery tail.
    fail_site: Optional[int] = 2
    fail_at_ms: Optional[float] = None
    recover_at_ms: Optional[float] = None

    def build_shape(self) -> LoadShape:
        peak = self.peak_tps if self.peak_tps is not None else 2.0 * self.rate_tps
        return lookup(LOAD_SHAPES, self.shape, "load shape")(self, peak)

    def build_workload(self, system: SystemConfig) -> WorkloadGenerator:
        return lookup(SOAK_WORKLOADS, self.workload, "workload")(self, system.item_ids)

    def system_config(self) -> SystemConfig:
        """The cluster config a soak run forces: concurrent mode with
        cooperative termination (a crash mid-2PC orphans participants;
        without timeouts they would block forever)."""
        return SystemConfig(
            seed=self.seed,
            num_sites=self.num_sites,
            db_size=self.db_size,
            max_txn_size=self.max_txn_size,
            cores=self.cores,
            wire_latency_ms=self.wire_latency_ms,
            concurrency_control=True,
            timeouts_enabled=True,
            detection=lookup(FailureDetection, self.detection, "detection mode"),
            recovery_policy=lookup(
                RecoveryPolicy, self.recovery_policy, "recovery policy"
            ),
        )

    def estimated_duration_ms(self) -> float:
        """Rough run length from the shape's mean rate — used only to
        place the default fail/recover cycle, never for measurement."""
        shape = self.build_shape()
        horizon = self.txns / self.rate_tps * 1000.0
        mean = shape.mean_rate(horizon)
        return self.txns / mean * 1000.0

    def effective_window_ms(self) -> float:
        """The window width the run actually uses: the configured width,
        widened so the estimated run yields at most ``max_windows``
        windows.  Deterministic (depends only on the config), so the
        report stays byte-identical across runs."""
        est = self.estimated_duration_ms()
        return max(self.window_ms, float(math.ceil(est / self.max_windows)))

    def fault_schedule(self) -> Optional[tuple[int, float, float]]:
        """``(site, fail_at_ms, recover_at_ms)`` or None."""
        if self.fail_site is None:
            return None
        fail_at = self.fail_at_ms
        recover_at = self.recover_at_ms
        if fail_at is None:
            fail_at = 0.35 * self.estimated_duration_ms()
        if recover_at is None:
            recover_at = fail_at + 0.25 * self.estimated_duration_ms()
        if recover_at <= fail_at:
            raise ConfigurationError(
                f"recover_at_ms ({recover_at}) must be after fail_at_ms ({fail_at})"
            )
        return (self.fail_site, fail_at, recover_at)

    def validate(self) -> None:
        if self.txns < 1:
            raise ConfigurationError(f"txns must be >= 1: {self.txns}")
        if self.rate_tps <= 0:
            raise ConfigurationError(f"rate_tps must be positive: {self.rate_tps}")
        if self.window_ms <= 0:
            raise ConfigurationError(f"window_ms must be positive: {self.window_ms}")
        if self.max_windows < 8:
            raise ConfigurationError(
                f"max_windows must be >= 8 for a usable series: {self.max_windows}"
            )
        if self.exemplars < 0:
            raise ConfigurationError(f"exemplars must be >= 0: {self.exemplars}")
        for name in ("fail_at_ms", "recover_at_ms"):
            value = getattr(self, name)
            if value is None:
                continue
            if value < 0:
                raise ConfigurationError(f"{name} must be >= 0: {value}")
            # fault_schedule() would drop it and run a fault-free soak.
            if self.fail_site is None:
                raise ConfigurationError(f"{name} given without a fail_site")
        if self.fail_site is not None and not (
            0 <= self.fail_site < self.num_sites
        ):
            raise ConfigurationError(
                f"fail_site {self.fail_site} out of range for "
                f"{self.num_sites} sites"
            )
        # Each name resolves here, not once the cluster is built.
        self.build_shape()  # also raises on bad shape parameters
        lookup(SOAK_WORKLOADS, self.workload, "workload")
        self.system_config()


@dataclass(slots=True)
class FaultEvent:
    """One fail/recover cycle, with observed completion times."""

    site: int
    fail_at_ms: float
    recover_at_ms: float
    failed_at_ms: Optional[float] = None
    recover_done_ms: Optional[float] = None
    lost_txns: int = 0


@dataclass(slots=True)
class SoakResult:
    """Everything a soak run measured (aggregates only — no records)."""

    config: SoakConfig
    sink: StreamingTxnSink = field(repr=False)
    commits: int = 0
    aborts: int = 0
    lost: int = 0
    elapsed_ms: float = 0.0
    events_fired: int = 0
    lock_parks: int = 0
    deadlocks_detected: int = 0
    status_inquiries: int = 0
    fault: Optional[FaultEvent] = None
    # Recovery periods the run observed (RecoveryPeriodRecord list).  The
    # report only surfaces them for non-default recovery policies, so the
    # default soak artifacts stay byte-identical to earlier revisions.
    recoveries: list = field(default_factory=list)

    @property
    def txns(self) -> int:
        return self.commits + self.aborts

    @property
    def throughput_tps(self) -> float:
        if self.elapsed_ms <= 0:
            return 0.0
        return self.commits / (self.elapsed_ms / 1000.0)

    @property
    def abort_rate(self) -> float:
        return self.aborts / self.txns if self.txns else 0.0


class SoakManager(ControlPlane):
    """Open-loop source that survives coordinator crashes.

    Tracks which sites it believes operational, routes new transactions
    to them, and settles transactions stranded at a crashed coordinator
    as ``COORDINATOR_FAILED`` aborts — exactly what a client library
    timing out against a dead frontend would report.
    """

    def __init__(
        self,
        cluster: Cluster,
        workload: WorkloadGenerator,
        shape: LoadShape,
        sink: StreamingTxnSink,
        txn_count: int,
    ) -> None:
        super().__init__(cluster, "soak")
        self.workload = workload
        self.shape = shape
        self.sink = sink
        self._expected = txn_count
        self._submitted = 0
        self._done = 0
        self.finished = False
        # txn -> (coordinator, submitted_at, op count); O(in-flight).
        self.outstanding: dict[int, tuple[int, float, int]] = {}
        self.lost = 0
        self.faults: list[FaultEvent] = []

    # -- arrivals ------------------------------------------------------------------

    def start(self) -> None:
        """Schedule the first arrival (subsequent ones chain)."""
        first = next_arrival_ms(self.shape, self._rng, 0.0)
        self.cluster.network.spawn(self, self._arrive, delay=first)

    def _arrive(self, ctx: HandlerContext) -> None:
        self._submitted += 1
        seq = self._submitted
        if isinstance(self.workload, HotKeyStormWorkload):
            ops = self.workload.generate_at(seq, self._rng, ctx.now)
        else:
            ops = self.workload.generate(seq, self._rng)
        up = self.up_sites
        dst = up[self._rng.randrange(len(up))]
        self.outstanding[seq] = (dst, ctx.now, len(ops))
        self.sink.note_arrival(ctx.now)
        self.submit(ctx, seq, ops, dst, seq)
        if self._submitted < self._expected:
            gap = next_arrival_ms(self.shape, self._rng, ctx.now) - ctx.now
            self.cluster.network.spawn(self, self._arrive, delay=gap)

    # -- outcomes ------------------------------------------------------------------

    def handle(self, ctx: HandlerContext, msg: Message) -> None:
        if msg.mtype is MessageType.MGR_RECOVER_DONE:
            site = self.recover_done(msg)
            for fault in self.faults:
                if fault.site == site and fault.recover_done_ms is None:
                    fault.recover_done_ms = ctx.now
            return
        if msg.mtype is not MessageType.MGR_TXN_DONE:
            raise ProtocolError(f"soak manager: unexpected message {msg}")
        entry = self.outstanding.pop(msg.txn_id, None)
        if entry is None:
            # Outcome for a transaction already settled as lost (its
            # coordinator crashed and later recovered, or a survivor
            # finished the commit on the coordinator's behalf).
            self.metrics.pop_participants(msg.txn_id)
            return
        _coordinator, submitted_at, _size = entry
        self.settle(ctx, msg, msg.txn_id, submitted_at)
        self._note_done()

    def on_delivery_failed(self, ctx: HandlerContext, msg: Message) -> None:
        """A submission bounced: the coordinator died after we chose it
        (within the failure-announcement latency window)."""
        if msg.mtype is MessageType.MGR_SUBMIT_TXN and msg.txn_id in self.outstanding:
            self._lose(ctx, msg.txn_id)

    def _note_done(self) -> None:
        self._done += 1
        if self._done >= self._expected:
            self.finished = True

    def _lose(self, ctx: HandlerContext, txn_id: int) -> None:
        coordinator, submitted_at, size = self.outstanding.pop(txn_id)
        self.lost += 1
        self.metrics.pop_participants(txn_id)
        self.metrics.record_txn(
            TxnRecord(
                txn_id=txn_id,
                seq=txn_id,
                coordinator=coordinator,
                committed=False,
                abort_reason=AbortReason.COORDINATOR_FAILED,
                size=size,
                items_read=0,
                items_written=0,
                submitted_at=submitted_at,
                finished_at=ctx.now,
                coordinator_elapsed=ctx.now - submitted_at,
                participant_elapsed={},
                copiers_requested=0,
                clear_notices_sent=0,
            )
        )
        self._note_done()

    # -- fault injection ------------------------------------------------------------

    def fail_site(self, ctx: HandlerContext, fault: FaultEvent) -> None:
        site_id = fault.site
        if site_id not in self._believed_up or len(self._believed_up) <= 1:
            return  # already down, or it is the last site standing
        self.fail(ctx, site_id)
        fault.failed_at_ms = ctx.now
        self.faults.append(fault)
        # Transactions coordinated by the failed site die with it.
        for txn_id in sorted(
            t for t, (coord, _at, _n) in self.outstanding.items()
            if coord == site_id
        ):
            self._lose(ctx, txn_id)
            fault.lost_txns += 1

    def recover_site(self, ctx: HandlerContext, site_id: int) -> None:
        if site_id not in self._believed_up:
            self.recover(ctx, site_id)


def run_soak(config: SoakConfig, trace=None) -> SoakResult:
    """Run one soak and return its streaming aggregates.

    Pass an enabled :class:`~repro.obs.sink.TraceSink` as ``trace`` to
    capture the run's structured trace; tracing is pure observation and
    does not perturb the simulation (same discipline as
    :func:`repro.chaos.runner.run_chaos_seed`).
    """
    config.validate()
    system = config.system_config()
    cluster_metrics = MetricsCollector()
    with Cluster(system, metrics=cluster_metrics) as cluster:
        if trace is not None:
            cluster.network.obs = trace
        sink = StreamingTxnSink(
            window_ms=config.effective_window_ms(),
            rel_err=config.rel_err,
            exemplar_k=config.exemplars,
            exemplar_rng=cluster.rng.stream("soak.exemplars") if config.exemplars else None,
        )
        cluster_metrics.txn_sink = sink

        # O(1)-memory mode: the diagnostic logs that experiments keep in full
        # are bounded for a soak.  Each site's redo log keeps a fixed window,
        # and the 2PC decision logs keep a generous tail —
        # cooperative-termination inquiries only ever concern transactions
        # still blocked somewhere, i.e. at most a few timeout-windows of
        # history.
        # At soak rates a blocked transaction resolves within ~2s (vote,
        # commit-retry, and status-inquiry timeouts), during which one site
        # decides at most a few dozen transactions — 128 retained decisions
        # is several times that horizon.
        for site in cluster.sites:
            site.db.log.capacity = 256
            site.coordinator.decisions.cap = 128
            site.participant.decisions.cap = 128

        detector = cluster.install_deadlock_detector()

        manager = SoakManager(
            cluster, config.build_workload(system), config.build_shape(), sink,
            config.txns,
        )
        cluster.network.replace_endpoint(manager)

        # Gauges snapshot at each window roll: in-flight txns, fail-locks.
        def on_window_open(window: Window) -> None:
            window.in_flight = len(manager.outstanding)
            window.faillocks = sum(cluster.faillock_counts().values())

        sink.windows.on_open = on_window_open

        schedule = config.fault_schedule()
        fault: Optional[FaultEvent] = None
        if schedule is not None:
            site_id, fail_at, recover_at = schedule
            fault = FaultEvent(site=site_id, fail_at_ms=fail_at, recover_at_ms=recover_at)
            cluster.network.spawn(
                manager, lambda ctx: manager.fail_site(ctx, fault), delay=fail_at
            )
            cluster.network.spawn(
                manager, lambda ctx: manager.recover_site(ctx, site_id),
                delay=recover_at,
            )

        try:
            manager.start()
            # A soak fires ~32 events per transaction (messages, CPU slices,
            # timeouts); the scheduler's default 10M runaway guard would cut a
            # multi-million-txn run short, so scale it with the configured size
            # while keeping a generous per-txn margin for timeout storms.
            cluster.scheduler.run(max_events=max(10_000_000, config.txns * 500))
            if not manager.finished:
                raise SimulationError(
                    f"soak run stalled: {manager._done}/{config.txns} outcomes, "
                    f"{len(manager.outstanding)} in flight at t={cluster.now:.0f}ms"
                )
            problems = cluster.audit_consistency()
            if problems:
                raise SimulationError(f"consistency violated: {problems[:3]}")

            return SoakResult(
                config=config,
                sink=sink,
                commits=cluster.metrics.counters.get("commits"),
                aborts=cluster.metrics.counters.get("aborts"),
                lost=manager.lost,
                elapsed_ms=cluster.now,
                events_fired=cluster.scheduler.fired,
                lock_parks=cluster.lock_parks(),
                deadlocks_detected=detector.deadlocks_found,
                status_inquiries=cluster.metrics.counters.get("status_inquiries"),
                fault=manager.faults[0] if manager.faults else fault,
                recoveries=list(cluster.metrics.recoveries),
            )
        finally:
            # The gauge hook closes a cycle through the cluster; the run is
            # over, so no window opens again.
            sink.windows.on_open = None
