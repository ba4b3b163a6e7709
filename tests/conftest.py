"""Shared fixtures for the test suite."""

from __future__ import annotations

import dataclasses
import faulthandler
import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.core.strategy import CopyControlStrategy
from repro.net.endpoint import HandlerContext
from repro.net.message import Message, MessageType
from repro.net.network import Network
from repro.obs.events import EventKind, TraceEvent
from repro.sim.cpu import CpuResource
from repro.sim.rng import DeterministicRng
from repro.sim.scheduler import EventScheduler
from repro.soak.engine import SoakConfig, SoakResult, run_soak
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


def soak_under(monkeypatch, strategy: str, **config) -> SoakResult:
    """Run ``SoakConfig(**config)`` under copy-control ``strategy``, which
    the soak's config does not carry."""
    system_config = SoakConfig.system_config
    monkeypatch.setattr(
        SoakConfig,
        "system_config",
        lambda self: dataclasses.replace(
            system_config(self), strategy=CopyControlStrategy(strategy)
        ),
    )
    return run_soak(SoakConfig(**config))


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
    """blake2b-128 of ``payload``'s canonical JSON: what ``pin`` compares
    with tests/pins.json."""
    raw = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(raw.encode(), digest_size=16).hexdigest()


# -- the pin ledger ---------------------------------------------------------------
#
# tests/pins.json maps each pinned test's node id to the digest of what its run
# decided and a one-line description of the run.  Every miss of a session is
# printed in one block at the end, with the ledger lines to paste.

LEDGER: dict[str, dict] = json.loads((Path(__file__).parent / "pins.json").read_text())
PINNED: dict[str, set[str]] = {}  # collected module -> its pinned tests' node ids
MOVED: list[tuple[str, str | None, str]] = []  # (node id, ledger digest, new digest)


@pytest.fixture
def pin(request):
    """``pin(payload)`` asserts that ``digest(payload)`` is this test's
    entry in tests/pins.json."""
    name = request.node.nodeid

    def check(payload) -> None:
        new, old = digest(payload), LEDGER.get(name, {}).get("digest")
        if new != old:
            MOVED.append((name, old, new))
        assert new == old, f"{name}: {old} → {new}"

    return check


def pytest_collectreport(report):
    if report.nodeid.endswith(".py"):
        PINNED[report.nodeid] = {
            node.nodeid
            for node in report.result
            if "pin" in getattr(node, "fixturenames", ())
        }


def pytest_collection_finish(session):
    """Refuse a ledger entry that no pinned test reads: its test was
    renamed, deleted or stopped pinning, or its module is gone.  Checked
    when the run collects whole modules, as tier-1 does (a ``file::test``
    argument or ``--lf`` collects part of one)."""
    config = session.config
    if config.getoption("lf", False) or any("::" in arg for arg in config.args):
        return
    orphans = [
        name
        for name in LEDGER
        if name not in PINNED.get(module := name.partition("::")[0], {name})
        or not (config.rootpath / module).is_file()
    ]
    if orphans:
        raise pytest.UsageError(f"tests/pins.json: no pinned test reads {orphans}")


def pytest_terminal_summary(terminalreporter):
    if not MOVED:
        return
    write = terminalreporter.write_line
    terminalreporter.section("moved pins (tests/pins.json)")
    for name, old, new in MOVED:
        write(f"{name}: {old} → {new}")
    write("tests/pins.json lines to paste over the old ones:")
    for name, _old, new in MOVED:
        entry = {"digest": new, "run": LEDGER.get(name, {}).get("run", "")}
        write(f"  {json.dumps(name)}: {json.dumps(entry)},")


# -- a hang is a failure ---------------------------------------------------------
#
# Each test (its setup, call and teardown) runs under a stdlib watchdog: if
# it is still running after HANG_BOUND_S, every thread's stack is printed
# and the run exits with status 1 instead of waiting for ever (a pool
# parent blocked on a reply that never comes, a drive loop that never
# drains).  The bound is far above the slowest test: under 3 s in tier-1
# and under 30 s among the ``slow`` tests on a 2-CPU host.  The watchdog is a
# thread, not a signal, so a test's own ``SIGALRM`` keeps working.

HANG_BOUND_S = 180.0
HANG_REPORT_FD = 2


def pytest_configure(config):
    # A copy of stderr taken while output is not captured: the watchdog
    # exits the process, so what it wrote to a test's capture would be lost.
    global HANG_REPORT_FD
    HANG_REPORT_FD = os.dup(2)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(HANG_BOUND_S, exit=True, file=HANG_REPORT_FD)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
