"""Shared fixtures for the test suite."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.net.endpoint import HandlerContext
from repro.net.message import Message, MessageType
from repro.net.network import Network
from repro.obs.events import EventKind, TraceEvent
from repro.sim.cpu import CpuResource
from repro.sim.rng import DeterministicRng
from repro.sim.scheduler import EventScheduler
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.system.costs import CostModel
from repro.system.scenario import Scenario
from repro.workload.uniform import UniformWorkload


@pytest.fixture
def scheduler() -> EventScheduler:
    return EventScheduler()


@pytest.fixture
def cpu(scheduler: EventScheduler) -> CpuResource:
    return CpuResource(scheduler, cores=1)


@pytest.fixture
def rng() -> DeterministicRng:
    return DeterministicRng(12345)


@pytest.fixture
def small_config() -> SystemConfig:
    """A tiny, fast configuration: 10 items, 3 sites."""
    return SystemConfig(db_size=10, num_sites=3, max_txn_size=4, seed=99)


@pytest.fixture
def paper2_config() -> SystemConfig:
    """The paper's Experiment 2 configuration."""
    return SystemConfig.paper_experiment2(seed=42)


def scale_costs(monkeypatch: pytest.MonkeyPatch, factor: float) -> None:
    """Patch every charge in the fixed cost table by ``factor`` (0.0: protocol
    logic only, no timing) for the rest of the test; patch before building
    the cluster, whose network reads its message costs when it is built."""
    for name, value in vars(CostModel).items():
        if isinstance(value, float):
            monkeypatch.setattr(CostModel, name, value * factor)


def make_scenario(config: SystemConfig, txn_count: int, **kwargs) -> Scenario:
    """A uniform-workload scenario over ``config``'s item space."""
    return Scenario(
        workload=UniformWorkload(config.item_ids, config.max_txn_size),
        txn_count=txn_count,
        **kwargs,
    )


def run_cluster(config: SystemConfig, scenario: Scenario, obs: bool = False) -> Cluster:
    """Build a cluster, run the scenario, return the cluster.  ``obs``
    records the run's trace events, for :func:`messages`."""
    cluster = Cluster(config)
    cluster.obs.enabled = obs
    cluster.run(scenario)
    return cluster


# A message's fate is settled by exactly one of these (transport acks
# excepted: a delivered NET_ACK is consumed without an event).
SETTLED = (EventKind.MSG_RECV, EventKind.MSG_DROP, EventKind.MSG_DUP)


def messages(
    cluster: Cluster | Network,
    mtype: MessageType | None = None,
    txn: int | None = None,
    kinds: tuple[EventKind, ...] = (EventKind.MSG_SEND,),
) -> list[TraceEvent]:
    """What the network carried, from ``cluster.obs``: the ``msg.*`` events
    of ``kinds`` (by default one per message sent), narrowed to one message
    type and/or one transaction.  Enable ``cluster.obs`` (or a bare
    network's ``obs``) before the run."""
    assert cluster.obs.enabled, "set cluster.obs.enabled = True before running"
    return [
        event
        for event in cluster.obs.events
        if event.kind in kinds
        and (mtype is None or event.args["mtype"] == mtype.value)
        and (txn is None or event.txn == txn)
    ]


def handle(
    cluster: Cluster,
    site_id: int,
    mtype: MessageType,
    payload: dict | None = None,
    src: int | None = None,
    txn_id: int = -1,
) -> list[Message]:
    """Run one message through ``site_id``'s handler, outside the network
    (``src`` defaults to the managing site); returns what the activation
    queued to send, unsent."""
    site = cluster.site(site_id)
    src = cluster.config.manager_id if src is None else src
    ctx = HandlerContext(cluster.network, site)
    site.handle(ctx, Message(src, site_id, mtype, payload or {}, txn_id))
    return ctx.outbox


def copies(db) -> dict[int, tuple[int, int]]:
    """``{item_id: (value, version)}`` of every copy ``db`` holds, read off
    its ``signature()`` (the state ``repro.check`` fingerprints)."""
    return {item: (value, version) for item, value, version in db.signature()[0]}


def lock_table(manager) -> dict[int, tuple[dict[int, str], list[int]]]:
    """``{item: ({holder: "S" or "X"}, FIFO waiters)}`` for every item a
    lock manager holds or queues on, read off its ``signature()``."""
    return {
        item: (dict(holders), [txn for txn, _mode in queue])
        for item, holders, queue in manager.signature()
    }


def digest(payload) -> str:
    """blake2b-128 of ``payload``'s canonical JSON: what the pinned tests
    compare against their pins."""
    raw = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(raw.encode(), digest_size=16).hexdigest()
