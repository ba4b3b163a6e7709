"""Cluster assembly and run driver — "mini-RAID in a box".

:class:`Cluster` wires the whole system together from a
:class:`~repro.system.config.SystemConfig`: scheduler, CPU bank, network,
replication catalog, database sites, and the managing site.  Its
:meth:`run` executes a scenario to completion and returns the metrics.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError, SimulationError
from repro.metrics.collector import MetricsCollector
from repro.net.network import Network
from repro.site.site import DatabaseSite
from repro.sim.cpu import CpuResource
from repro.sim.logical import LogicalClock
from repro.sim.rng import DeterministicRng
from repro.sim.scheduler import EventScheduler
from repro.storage.catalog import ReplicationCatalog
from repro.system.config import SystemConfig
from repro.system.deadlock import GlobalDeadlockDetector
from repro.system.managing import ManagingSite
from repro.system.scenario import Scenario


class Cluster:
    """A fully wired mini-RAID system."""

    def __init__(
        self,
        config: SystemConfig,
        catalog: Optional[ReplicationCatalog] = None,
        metrics: Optional[MetricsCollector] = None,
    ) -> None:
        self.config = config
        self.config.validate()
        self.scheduler = EventScheduler()
        self.cpu = CpuResource(self.scheduler, cores=self.config.cores)
        self.rng = DeterministicRng(self.config.seed)
        # Callers may inject a collector wired to a streaming sink (soak
        # runs); the default retains exact per-transaction records.
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.network = Network(
            scheduler=self.scheduler,
            cpu=self.cpu,
            wire_latency_ms=self.config.wire_latency_ms,
            failure_detect_delay=self.config.failure_detect_delay_ms,
        )
        if self.config.reliable_delivery:
            from repro.net.reliable import ReliableDelivery

            self.network.reliable = ReliableDelivery(self.network)
        self.catalog = (
            catalog
            if catalog is not None
            else ReplicationCatalog.fully_replicated(
                self.config.item_ids, self.config.site_ids
            )
        )
        self.version_clock = LogicalClock()
        self.sites: list[DatabaseSite] = []
        for site_id in self.config.site_ids:
            site = DatabaseSite(
                site_id,
                self.config,
                self.catalog,
                self.metrics,
                version_clock=self.version_clock,
            )
            site.attach(self.network)
            self.sites.append(site)
        self.manager = ManagingSite(self)
        self.network.register(self.manager)
        self.network.partition_exempt.add(self.manager.site_id)

    # -- convenience access --------------------------------------------------------

    def site(self, site_id: int) -> DatabaseSite:
        """The database site with id ``site_id``."""
        try:
            return self.sites[site_id]
        except IndexError:
            raise ConfigurationError(f"no site {site_id}") from None

    @property
    def obs(self):
        """The run's trace sink (repro.obs) — disabled until you set
        ``cluster.obs.enabled = True`` before :meth:`run`."""
        return self.network.obs

    def observer_site(self) -> Optional[DatabaseSite]:
        """The lowest-id operational site (best-informed fail-lock table)."""
        for site in self.sites:
            if site.alive:
                return site
        return None

    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self.scheduler.now

    def install_probe(self, probe) -> None:
        """Attach an audit probe to every site and the network.

        ``probe`` must provide ``on_commit_applied(site, txn_id, items,
        recipients)``, ``on_coordinator_abort(site_id, txn_id, reason)`` and
        ``on_message(msg)`` — the hooks
        :class:`~repro.chaos.invariants.InvariantAuditor` implements.
        """
        for site in self.sites:
            site.probe = probe
        self.network.delivery_probes.append(probe.on_message)

    def install_deadlock_detector(self) -> GlobalDeadlockDetector:
        """Give every site's lock service one shared detector (concurrent
        mode: the waits-for graph is the union over sites)."""
        if not self.config.concurrency_control:
            raise ConfigurationError(
                "concurrent runs need SystemConfig(concurrency_control=True)"
            )
        detector = GlobalDeadlockDetector()
        for site in self.sites:
            site.lock_service.detector = detector
        return detector

    def lock_parks(self) -> int:
        """Lock requests that had to wait, summed over sites."""
        return sum(
            site.lock_service.parks for site in self.sites if site.lock_service
        )

    # -- running --------------------------------------------------------------------

    def run(self, scenario: Scenario, max_events: int = 50_000_000) -> MetricsCollector:
        """Run ``scenario`` to completion; returns the metrics collector."""
        self.manager.run(scenario)
        self.scheduler.run(max_events=max_events)
        if not self.manager.finished:
            raise SimulationError(
                "scheduler drained before the scenario finished — "
                "a protocol exchange stalled"
            )
        return self.metrics

    def close(self) -> None:
        """Give a finished run's cluster back to reference counting.

        Drops every back-reference that closes a cycle (whatever is still
        queued, the network's endpoint table and probes, each site's
        handler tables, 2PC roles and recovery policy, the managing site's
        pointer to the cluster), so the cluster is freed as soon as its
        last outside reference goes instead of waiting for the cyclic
        collector.  A closed cluster still answers what a finished run is
        read for: ``scheduler.fired``, ``metrics``, ``config``, the
        network's counters, ``reliable`` and ``interposer``, and each
        site's database, ``recovery``, ``lock_service`` and ``probe``.  It
        can run nothing more.  Idempotent.
        """
        self.scheduler.clear()
        self.network.close()
        for site in self.sites:
            site.close()
        self.manager.cluster = None  # type: ignore[assignment]

    def __enter__(self) -> Cluster:
        return self

    def __exit__(self, *exc_info: object) -> None:
        """``with Cluster(config) as cluster:`` closes it on every exit."""
        self.close()

    # -- consistency auditing (the invariant Experiment 3 is about) -------------------

    def audit_consistency(self) -> list[str]:
        """Check the replicated-copy-control invariant; returns violations.

        For every item: every copy *not* fail-locked (per the best-informed
        operational table) must carry the globally newest version, and all
        such copies must agree on the value.  An empty list means the
        database is consistent in the paper's sense — fail-locks exactly
        track which copies are out of date.
        """
        problems: list[str] = []
        observer = self.observer_site()
        if observer is None:
            return ["no operational site to audit from"]
        table = observer.faillocks
        for item in self.catalog.item_ids:
            newest = max(
                self.site(s).db.version(item) for s in self.catalog.holders(item)
            )
            for site_id in sorted(self.catalog.holders(item)):
                version = self.site(site_id).db.version(item)
                locked = table.is_locked(item, site_id)
                if not locked and version != newest:
                    problems.append(
                        f"item {item}: site {site_id} copy v{version} is not "
                        f"fail-locked but newest is v{newest}"
                    )
        return problems

    def faillock_counts(self) -> dict[int, int]:
        """Current fail-locks per site, from the best-informed table."""
        observer = self.observer_site()
        if observer is None:
            return {site: 0 for site in self.config.site_ids}
        return {
            site: observer.faillocks.count_for(site)
            for site in self.config.site_ids
        }

    def __repr__(self) -> str:
        return (
            f"Cluster(sites={len(self.sites)}, items={self.config.db_size}, "
            f"now={self.now:.1f}ms)"
        )
