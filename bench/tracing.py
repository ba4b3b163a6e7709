"""Outside-in span tracer: per-layer calls, self time and counts.

Spans are recorded from here, not from inside the program: ``install``
replaces each layer's entry points (class attributes and module-level
functions) with timing wrappers *before* any cluster is built, because
sites pre-bind their handlers and dispatch dicts at construction.  The
wrappers keep ``__qualname__`` (``functools.wraps``) and live on the
class, so ``repro.check.fingerprint``'s identity tests
(``func is Network._deliver``) and action names see exactly what they
see untraced — the traced pass must reproduce the untraced digest.

Callbacks the scheduler fires (``Network._deliver``, activation and
timer targets, lock resumes) are wrapped at their owning class, so their
time leaves ``sim``'s self time and lands in the layer that owns them.
A layer's self time is its spans' duration minus the part their child
spans cover; what no span covers is the root span's self time and is
reported as ``trace.unattributed_share``.

Known limit: code a wrapped function calls in a module that has no entry
point here (``txn.transaction``, ``net.trace``, closures handed to
``ctx.on_done``) is charged to the caller's layer, and each wrapper's own
cost (about a microsecond) inflates the layers with many tiny calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from pathlib import Path

from workloads import MODEL_METRICS

ALL = "*"     # every plain function in the class body, dunders excepted
PUBLIC = "+"  # ... whose name has no leading underscore

LAYERS = (
    "sim", "net", "net.reliable", "site", "site.locking", "txn.locks",
    "system.deadlock", "core", "recovery", "storage", "metrics", "workload",
    "soak", "system.driver", "chaos.interpose", "chaos.invariants", "check",
    "system.cluster",
)

# (layer, "module" or "module:Class", names | ALL | PUBLIC)
ENTRY_POINTS = (
    ("sim", "repro.sim.scheduler:EventScheduler",
     ("run", "step", "run_until", "post", "post_at", "schedule", "schedule_at")),
    ("sim", "repro.sim.events:Event", ("cancel",)),
    ("sim", "repro.sim.cpu:CpuResource", ("execute",)),
    ("net", "repro.net.network:Network",
     ("spawn", "register", "replace_endpoint", "endpoint", "_run_activation",
      "_release_activation", "_deliver", "_run_failure_notice")),
    ("net", "repro.net.endpoint:HandlerContext", ("send", "after", "on_done")),
    ("net.reliable", "repro.net.reliable:ReliableDelivery",
     ("tracks", "track", "on_ack", "on_arrival", "cancel", "_on_timer")),
    ("site", "repro.site.site:DatabaseSite", ALL),
    ("site", "repro.site.coordinator:CoordinatorRole", ALL),
    ("site", "repro.site.participant:ParticipantRole", ALL),
    ("site.locking", "repro.site.locking:SiteLockService", ALL),
    ("txn.locks", "repro.txn.locks:LockManager", PUBLIC),
    ("system.deadlock", "repro.system.deadlock:GlobalDeadlockDetector", PUBLIC),
    ("core", "repro.core.faillocks:FailLockTable", PUBLIC),
    ("core", "repro.core.rowaa:RowaaPlanner", PUBLIC),
    ("core", "repro.core.sessions:NominalSessionVector", PUBLIC),
    ("core", "repro.core.recovery:RecoveryManager", PUBLIC),
    ("core", "repro.core.copier", PUBLIC),
    ("recovery", "repro.recovery.partition", ("plan_partitions",)),
    ("recovery", "repro.recovery.scheduler:ParallelCopierScheduler", PUBLIC),
    ("storage", "repro.storage.database:SiteDatabase", PUBLIC),
    ("storage", "repro.storage.log:RedoLog", PUBLIC),
    ("storage", "repro.storage.catalog:ReplicationCatalog", PUBLIC),
    ("metrics", "repro.metrics.collector:MetricsCollector", PUBLIC),
    ("metrics", "repro.metrics.streaming:StreamingTxnSink",
     ("__call__", "note_arrival")),
    ("workload", "repro.workload.uniform:UniformWorkload", ("generate",)),
    ("workload", "repro.workload.zipf:ZipfWorkload", ("generate",)),
    ("workload", "repro.workload.wisconsin:WisconsinWorkload", ("generate",)),
    ("workload", "repro.workload.shapes", ("next_arrival_ms",)),
    ("soak", "repro.soak.engine:SoakManager", ALL),
    ("system.driver", "repro.system.managing:ManagingSite", ALL),
    ("system.driver", "repro.system.openloop:OpenLoopManager", ALL),
    ("chaos.interpose", "repro.chaos.interpose:FaultInjector", ALL),
    ("chaos.invariants", "repro.chaos.invariants:InvariantAuditor", ALL),
    ("check", "repro.check.fingerprint", ("cluster_fingerprint",)),
    ("check", "repro.check.runner", ("run_schedule",)),
    ("check", "repro.check.explorer", ("_expand_children",)),
    ("check", "repro.check.hooks:OrderChoiceHook", ("__call__",)),
    ("check", "repro.check.hooks:FateChoiceHook", ("intercept",)),
    ("check", "repro.check.hooks:FaultChoiceHook", ("get",)),
    ("check", "repro.check.choices:ChoiceController", ("choose",)),
    ("system.cluster", "repro.system.cluster:Cluster",
     ("__init__", "run", "audit_consistency", "install_probe", "faillock_counts")),
)

# Counts read off each finished cluster (public attributes), summed over
# every cluster the traced pass builds.
HARVESTED = (
    "sim.events", "txns", "net.msgs_sent", "net.msgs_undeliverable",
    "net.reliable.retransmits", "net.reliable.dup_dropped", "txn.locks.parks",
    "system.deadlock.cycles_found", "system.deadlock.victims",
    "core.control_txns", "core.copier_requests", "core.batch_copier_requests",
    "core.refreshed_by_copier", "core.refreshed_by_write", "recovery.batches",
    "chaos.interpose.faults_injected", "chaos.invariants.checks",
)

# name -> entry points whose call counts add up to it
CALL_COUNTS = {
    "net.reliable.tracked": ("ReliableDelivery.track",),
    "site.msgs_handled": ("DatabaseSite.handle",),
    "site.coord_begins": ("CoordinatorRole.begin",),
    "txn.locks.requests": ("LockManager.request",),
    "system.deadlock.blocks": ("GlobalDeadlockDetector.block",),
    "core.faillock_updates": ("FailLockTable.update_on_commit",
                              "FailLockTable.update_with_recipients"),
    "core.faillocks_set": ("FailLockTable.set_lock",),
    "core.faillocks_cleared": ("FailLockTable.clear_lock",),
    "recovery.pumps": ("ParallelCopierScheduler.pump",),
    "recovery.plans": ("plan_partitions",),
    "storage.reads": ("SiteDatabase.read",),
    "storage.stages": ("SiteDatabase.stage",),
    "storage.commits": ("SiteDatabase.apply_write",),
    "storage.installs": ("SiteDatabase.install_copy",),
    "storage.log_appends": ("RedoLog.append",),
    "metrics.records": tuple(
        f"MetricsCollector.record_{kind}" for kind in
        ("txn", "control", "copier", "recovery_period", "faillock_sample", "violation")
    ),
    "chaos.interpose.intercepts": ("FaultInjector.intercept",),
    "check.fingerprints": ("cluster_fingerprint",),
    "system.cluster.builds": ("Cluster.__init__",),
}

# Every per-layer metric, in report order: (name, unit, better).
PER_LAYER = tuple(
    (f"{layer}.{part}", unit, "lower")
    for layer in LAYERS
    for part, unit in (("calls", "count"), ("self_s", "s"), ("self_share", "ratio"))
) + (
    ("sim.events", "count", "lower"),
    ("sim.events_per_txn", "1/txn", "lower"),
    ("sim.host_us_per_event", "us", "lower"),
    ("net.msgs_sent", "count", "lower"),
    ("net.msgs_per_txn", "1/txn", "lower"),
    ("net.msgs_undeliverable", "count", "lower"),
    ("net.reliable.tracked", "count", "lower"),
    ("net.reliable.retransmits", "count", "lower"),
    ("net.reliable.retransmit_ratio", "ratio", "lower"),
    ("net.reliable.dup_dropped", "count", "lower"),
    ("site.msgs_handled", "count", "lower"),
    ("site.host_us_per_msg", "us", "lower"),
    ("site.coord_begins", "count", "lower"),
    ("site.participant_self_share", "ratio", "lower"),
    ("txn.locks.requests", "count", "lower"),
    ("txn.locks.parks", "count", "lower"),
    ("txn.locks.park_ratio", "ratio", "lower"),
    ("system.deadlock.blocks", "count", "lower"),
    ("system.deadlock.cycles_found", "count", "lower"),
    ("system.deadlock.victims", "count", "lower"),
    ("system.deadlock.host_us_per_block", "us", "lower"),
    ("core.faillock_updates", "count", "lower"),
    ("core.faillocks_set", "count", "lower"),
    ("core.faillocks_cleared", "count", "lower"),
    ("core.control_txns", "count", "lower"),
    ("core.copier_requests", "count", "lower"),
    ("core.batch_copier_requests", "count", "lower"),
    ("core.refreshed_by_copier", "count", "higher"),
    ("core.refreshed_by_write", "count", "higher"),
    ("recovery.pumps", "count", "lower"),
    ("recovery.plans", "count", "lower"),
    ("recovery.batches", "count", "lower"),
    ("storage.reads", "count", "lower"),
    ("storage.stages", "count", "lower"),
    ("storage.commits", "count", "lower"),
    ("storage.installs", "count", "lower"),
    ("storage.log_appends", "count", "lower"),
    ("metrics.records", "count", "lower"),
    ("chaos.interpose.intercepts", "count", "lower"),
    ("chaos.interpose.faults_injected", "count", "higher"),
    ("chaos.invariants.checks", "count", "higher"),
    ("chaos.invariants.host_us_per_check", "us", "lower"),
    ("check.fingerprints", "count", "lower"),
    ("check.states", "count", "higher"),
    ("check.pruned_share", "ratio", "higher"),
    ("check.host_us_per_fingerprint", "us", "lower"),
    ("system.cluster.builds", "count", "lower"),
    ("system.cluster.host_ms_per_build", "ms", "lower"),
    ("perf.pool.speedup_jobs2", "ratio", "higher"),
    ("perf.pool.identical", "count", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("bench.warmup_excess_s", "s", "lower"),
) + MODEL_METRICS

# Wall-clock readings; every other per-layer metric is exact per seed.
HOST_PARTS = ("host_", ".self_s", ".self_share", "_self_share", "perf.pool.speedup",
              "trace.", "bench.")


def is_exact(name: str) -> bool:
    """Whether a per-layer metric must repeat exactly for one seed."""
    return not any(part in name for part in HOST_PARTS)


def self_times(spans) -> dict[str, int]:
    """Self time per span name: duration minus what child spans cover.

    ``spans`` are ``(span_id, name, start, end, parent_id)`` in any order,
    ``-1`` for no parent: the rows of a ``*.trace.json``.  The reference
    arithmetic that the wrappers implement incrementally.
    """
    covered: dict[int, int] = {}
    for _id, _name, start, end, parent in spans:
        covered[parent] = covered.get(parent, 0) + end - start
    out: dict[str, int] = {}
    for span_id, name, start, end, _parent in spans:
        out[name] = out.get(name, 0) + (end - start) - covered.get(span_id, 0)
    return out


class Tracer:
    """Aggregates per entry point, plus the first ``max_spans`` raw spans."""

    def __init__(self, max_spans: int = 100_000, clock=time.perf_counter_ns) -> None:
        self.max_spans = max_spans
        self.clock = clock
        self.points: list[str] = []       # "Class.method" / "function"
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.total_ns: list[int] = []
        # (span id, point, start_ns, end_ns, parent span id); an id is the
        # span's position in call order, the list is in closing order.
        self.spans: list[tuple[int, int, int, int, int]] = []
        self.counts = dict.fromkeys(HARVESTED, 0)
        self._open_ids: list[int] = []
        self._open_child_ns: list[int] = []
        self._next_id = [0]
        self._patched: list[tuple[object, str, object]] = []
        self._live_cluster = None

    # -- wrapping ---------------------------------------------------------

    def _point(self, layer: str, name: str) -> int:
        self.points.append(name)
        self.layer_of.append(layer)
        for column in (self.calls, self.self_ns, self.total_ns):
            column.append(0)
        return len(self.points) - 1

    def wrap(self, fn, layer: str, name: str):
        """``fn`` with a span around every call."""
        point = self._point(layer, name)
        calls, self_ns, total_ns = self.calls, self.self_ns, self.total_ns
        ids, child_ns, spans = self._open_ids, self._open_child_ns, self.spans
        next_id, cap, now = self._next_id, self.max_spans, self.clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            span_id = next_id[0]
            next_id[0] = span_id + 1
            ids.append(span_id)
            child_ns.append(0)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                took = end - start
                ids.pop()
                calls[point] += 1
                total_ns[point] += took
                self_ns[point] += took - child_ns.pop()
                if child_ns:
                    child_ns[-1] += took
                if span_id < cap:
                    spans.append((span_id, point, start, end, ids[-1] if ids else -1))

        return span

    def _track_cluster(self, init):
        """Harvest the previous cluster's counters when the next is built."""

        @functools.wraps(init)
        def __init__(cluster, *args, **kwargs):
            init(cluster, *args, **kwargs)
            self._harvest()
            self._live_cluster = cluster

        return __init__

    def install(self) -> None:
        """Wrap every entry point.  Call before any input is built."""
        for layer, target, names in ENTRY_POINTS:
            module_name, _, class_name = target.partition(":")
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            for name in self._resolve(owner, module_name, names):
                original = vars(owner)[name]
                if not isinstance(original, types.FunctionType):
                    raise TypeError(f"{target}.{name} is not a plain function")
                label = f"{class_name}.{name}" if class_name else name
                wrapper = self.wrap(original, layer, label)
                if label == "Cluster.__init__":
                    wrapper = self._track_cluster(wrapper)
                if class_name:
                    self._patch(owner, name, original, wrapper)
                else:
                    # ``from module import fn`` copies the reference: patch
                    # every repro module that holds it.
                    for holder in list(sys.modules.values()):
                        if getattr(holder, "__name__", "").startswith("repro"):
                            for alias, value in list(vars(holder).items()):
                                if value is original:
                                    self._patch(holder, alias, original, wrapper)

    @staticmethod
    def _resolve(owner, module_name: str, names) -> list[str]:
        if names not in (ALL, PUBLIC):
            return list(names)
        return [
            name for name, value in vars(owner).items()
            if isinstance(value, types.FunctionType)
            and value.__module__ == module_name
            and not (name.startswith("__") and name.endswith("__"))
            and not (names == PUBLIC and name.startswith("_"))
        ]

    def _patch(self, owner, name: str, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._patched.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # -- counts -----------------------------------------------------------

    def _harvest(self) -> None:
        cluster, self._live_cluster = self._live_cluster, None
        if cluster is None:
            return
        n = self.counts
        network, counters = cluster.network, cluster.metrics.counters
        n["sim.events"] += cluster.scheduler.fired
        n["txns"] += counters.get("txns")
        n["net.msgs_sent"] += network.messages_sent
        n["net.msgs_undeliverable"] += network.messages_undeliverable
        if network.reliable is not None:
            stats = network.reliable.stats
            n["net.reliable.retransmits"] += stats.retransmissions
            n["net.reliable.dup_dropped"] += stats.duplicates_suppressed
        faults = getattr(network.interposer, "stats", None)
        if faults is not None:
            n["chaos.interpose.faults_injected"] += faults.total
        n["core.control_txns"] += sum(
            counters.get(f"control_type{kind}") for kind in (1, 2, 3)
        )
        batches = counters.get("batch_copiers")
        n["core.copier_requests"] += counters.get("copiers")
        n["core.batch_copier_requests"] += batches
        if cluster.config.recovery_policy.value == "parallel":
            n["recovery.batches"] += batches
        periods = list(cluster.metrics.recoveries)
        periods += [s.recovery.stats for s in cluster.sites if s.recovery.in_recovery]
        for period in periods:
            n["core.refreshed_by_copier"] += period.refreshed_by_copier
            n["core.refreshed_by_write"] += period.refreshed_by_write
        site = cluster.sites[0]
        if site.lock_service is not None:
            n["txn.locks.parks"] += sum(s.lock_service.parks for s in cluster.sites)
            detector = site.lock_service.detector
            if detector is not None:
                n["system.deadlock.cycles_found"] += detector.deadlocks_found
                n["system.deadlock.victims"] += len(detector.victims)
        n["chaos.invariants.checks"] += getattr(site.probe, "checks", 0)

    def run_root(self, run):
        """Call ``run`` under the root span and harvest the last cluster."""
        try:
            return self.wrap(run, "bench", "root")()
        finally:
            self._harvest()

    # -- reporting --------------------------------------------------------

    def by_layer(self, column: list[int]) -> dict[str, int]:
        out = dict.fromkeys(LAYERS + ("bench",), 0)
        for layer, value in zip(self.layer_of, column):
            out[layer] += value
        return out

    def of_points(self, column: list[int], names: tuple[str, ...]) -> int:
        return sum(v for point, v in zip(self.points, column) if point in names)

    def write(self, path: Path, workload: str, seed: int) -> None:
        """The aggregates and the first ``max_spans`` spans, as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "workload": workload,
            "seed": seed,
            "unit": "ns",
            "points": [
                {"name": name, "layer": layer, "calls": calls,
                 "self_ns": self_ns, "total_ns": total_ns}
                for name, layer, calls, self_ns, total_ns in zip(
                    self.points, self.layer_of, self.calls, self.self_ns,
                    self.total_ns,
                )
                if calls
            ],
            "counts": self.counts,
            "spans_recorded": len(self.spans),
            "spans_total": self._next_id[0],
            "span_fields": ["span", "point", "start_ns", "end_ns", "parent_span"],
            "spans": [
                [span_id, self.points[point], start, end, parent]
                for span_id, point, start, end, parent in self.spans
            ],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def per_layer_metrics(
    tracer: Tracer,
    outcome,
    *,
    traced_wall_s: float,
    untraced_wall_s: float,
    warmup_wall_s: float,
    pool: tuple[float, bool] | None,
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric; 0 where the layer did not run."""
    calls = tracer.by_layer(tracer.calls)
    self_ns = tracer.by_layer(tracer.self_ns)
    total = sum(self_ns.values()) or 1
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.self_s"] = self_ns[layer] / 1e9
        m[f"{layer}.self_share"] = self_ns[layer] / total
    m.update((name, tracer.counts[name]) for name in HARVESTED if name != "txns")
    for name, points in CALL_COUNTS.items():
        m[name] = tracer.of_points(tracer.calls, points)

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    txns = tracer.counts["txns"]
    m["sim.events_per_txn"] = per(m["sim.events"], txns)
    m["sim.host_us_per_event"] = per(self_ns["sim"] / 1e3, m["sim.events"])
    m["net.msgs_per_txn"] = per(m["net.msgs_sent"], txns)
    m["net.reliable.retransmit_ratio"] = per(
        m["net.reliable.retransmits"], m["net.reliable.tracked"]
    )
    m["site.host_us_per_msg"] = per(self_ns["site"] / 1e3, m["site.msgs_handled"])
    participant = sum(
        ns for point, ns in zip(tracer.points, tracer.self_ns)
        if point.startswith("ParticipantRole.")
    )
    m["site.participant_self_share"] = participant / total
    m["txn.locks.park_ratio"] = per(m["txn.locks.parks"], m["txn.locks.requests"])
    m["system.deadlock.host_us_per_block"] = per(
        self_ns["system.deadlock"] / 1e3, m["system.deadlock.blocks"]
    )
    m["chaos.invariants.host_us_per_check"] = per(
        self_ns["chaos.invariants"] / 1e3, m["chaos.invariants.checks"]
    )
    facts = outcome.facts  # check-explore's are its ExplorationStats
    pruned = facts.get("pruned_visited", 0) + facts.get("pruned_sleep", 0)
    m["check.states"] = facts.get("states", 0)
    m["check.pruned_share"] = per(pruned, pruned + m["check.states"])
    m["check.host_us_per_fingerprint"] = per(
        tracer.of_points(tracer.total_ns, ("cluster_fingerprint",)) / 1e3,
        m["check.fingerprints"],
    )
    m["system.cluster.host_ms_per_build"] = per(
        tracer.of_points(tracer.total_ns, ("Cluster.__init__",)) / 1e6,
        m["system.cluster.builds"],
    )
    m["perf.pool.speedup_jobs2"] = pool[0] if pool else 0.0
    m["perf.pool.identical"] = int(pool[1]) if pool else 0
    m["trace.overhead_ratio"] = per(traced_wall_s, untraced_wall_s)
    m["trace.unattributed_share"] = self_ns["bench"] / total
    m["bench.warmup_excess_s"] = warmup_wall_s - untraced_wall_s
    for name, _unit, _better in MODEL_METRICS:
        m[name] = outcome.model.get(name, 0.0)
    return m
