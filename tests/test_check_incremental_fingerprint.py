"""Incremental state fingerprints against the from-scratch reference.

``cluster_fingerprint`` rebuilds a site's signature text only if the site
finished an activation since the last fingerprint (``Network.endpoint_memo``),
and an in-flight message's text once per run.
The fingerprint it replaced — sign every site, ``repr`` the whole tuple —
lives here as the reference, not in ``src/``: every digest the incremental
one produces must equal it, and a search run on either must come out the
same.  Cost is pinned by counting ``signature()`` calls; no test below
reads a clock.
"""

import ast
import hashlib
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from repro.check import CheckConfig, explore, run_schedule
from repro.check import runner
from repro.check.fingerprint import (
    _entry_signature,
    _live_entries,
    cluster_fingerprint,
    message_signature,
)
from repro.net.network import Network
from repro.obs.sink import TraceSink
from repro.perf.pool import run_chunked, shutdown_pool
from repro.site.site import DatabaseSite
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.system.openloop import OpenLoopManager
from repro.txn.operations import OpKind, Operation
from repro.workload.base import WorkloadGenerator

# bench/workloads.py's check-explore config (seed = 42 + block).
_BENCH = CheckConfig(
    sites=4, db_size=8, txns=6, seed=42, explore_fates=True,
    max_branch=4, max_drops=2, max_crashes=2, max_recoveries=2,
)
# ``jobs=1``: the tests below patch the parent, and a pool worker running
# a look-ahead prefix would run the unpatched code.
_BENCH_BUDGET = dict(max_runs=30, max_depth=80, stop_on_violation=False, jobs=1)


def pending_signature(cluster) -> tuple:
    """Signatures of all live pending events, sorted for stability — the
    tuple whose ``repr`` ``cluster_fingerprint`` assembles from texts.

    Sorted by repr rather than heap position: the heap's internal layout
    depends on push/pop history, which is schedule history — exactly what
    a state fingerprint must not observe.
    """
    scheduler = cluster.scheduler
    now = scheduler.clock._now
    return tuple(
        sorted(
            (_entry_signature(entry, now) for entry in _live_entries(scheduler)),
            key=repr,
        )
    )


def reference_fingerprint(cluster) -> str:
    """The fingerprint as it was before it had a memo."""
    signature = (
        tuple(site.signature() for site in cluster.sites),
        cluster.manager.signature(),
        pending_signature(cluster),
    )
    return hashlib.blake2b(repr(signature).encode(), digest_size=16).hexdigest()


@pytest.fixture
def forked():
    """Pool workers forked before the patches of the fixtures after it,
    as they are in a real search: they run the code in ``src/``."""
    shutdown_pool()
    run_chunked(str, range(2), jobs=2)


@pytest.fixture
def compared(monkeypatch):
    """Every fingerprint ``run_schedule`` takes is checked against the
    reference on the spot; returns the list of digests taken."""
    taken = []

    def both(cluster):
        digest = cluster_fingerprint(cluster)
        assert digest == reference_fingerprint(cluster), (
            f"fingerprint {len(taken)} at t={cluster.now}: a site's cached "
            f"signature is stale"
        )
        taken.append(digest)
        return digest

    monkeypatch.setattr(runner, "cluster_fingerprint", both)
    return taken


@pytest.fixture
def signed(monkeypatch):
    """The sites whose ``signature()`` was called, in call order."""
    calls = []
    real = DatabaseSite.signature
    monkeypatch.setattr(
        DatabaseSite, "signature", lambda site: calls.append(site) or real(site)
    )
    return calls


def _outcome(result):
    return (
        asdict(result.stats),
        result.fingerprints,
        result.counterexample,
        result.violation,
    )


_CONFIGS = pytest.mark.parametrize(
    "config",
    [replace(_BENCH, seed=seed) for seed in (42, 43, 44, 45, 46)]
    + [
        replace(_BENCH, seed=7, recovery_policy=policy)
        for policy in ("on_demand", "two_step", "parallel")
    ]
    + [
        replace(_BENCH, mutate=True),
        replace(_BENCH, explore_fates=False),
        replace(_BENCH, explore_order=False),  # no tie_breaker: plain run()
    ],
    ids=lambda c: (
        f"seed{c.seed}-{c.recovery_policy}"
        f"{'-mutate' if c.mutate else ''}"
        f"{'' if c.explore_fates else '-nofates'}"
        f"{'' if c.explore_order else '-noorder'}"
    ),
)


@_CONFIGS
def test_every_fingerprint_of_a_search_equals_the_reference(
    config, compared, monkeypatch
):
    incremental = explore(config, **_BENCH_BUDGET)
    assert len(compared) >= incremental.stats.states > 0
    monkeypatch.setattr(runner, "cluster_fingerprint", reference_fingerprint)
    assert _outcome(incremental) == _outcome(explore(config, **_BENCH_BUDGET))


@_CONFIGS
def test_a_message_does_not_change_while_it_is_pending(config, monkeypatch):
    """What the per-message text memo rests on: from the end of the
    activation that queued a message to its delivery, the message's
    canonical signature stays what it was."""
    queued = {}
    delivered = []
    finish, deliver = Network._finish_activation, Network._deliver

    def queue_then_finish(network, ctx):
        for msg in ctx.outbox:
            queued[id(msg)] = (msg, message_signature(msg))
        finish(network, ctx)

    def check_then_deliver(network, msg, released=False):
        first, signature = queued.pop(id(msg))
        assert first is msg and message_signature(msg) == signature, msg
        delivered.append(msg.mtype)
        deliver(network, msg, released)

    monkeypatch.setattr(Network, "_finish_activation", queue_then_finish)
    monkeypatch.setattr(Network, "_deliver", check_then_deliver)
    explore(config, **_BENCH_BUDGET)
    assert len(set(delivered)) >= 8


def test_look_ahead_search_equals_the_reference(forked, compared, monkeypatch):
    """The look-ahead runs in a pool worker, which forked before the
    patch: the incremental fingerprint it takes there must give the
    search the reference takes in-process."""
    config = replace(_BENCH, sites=3, txns=3)
    budget = dict(max_runs=24, max_depth=40)
    incremental = explore(config, **budget, jobs=2)
    assert compared  # the parent's own runs
    monkeypatch.setattr(runner, "cluster_fingerprint", reference_fingerprint)
    reference = explore(config, **budget, jobs=1)
    assert _outcome(incremental) == _outcome(reference)
    assert incremental.stats.runs > 1 and incremental.fingerprints


def test_tracing_stays_out_of_the_memoized_text(compared):
    window = range(0, 80)
    plain = run_schedule(_BENCH, [0, 1, 2], fingerprint_at=window)
    traced = run_schedule(
        _BENCH, [0, 1, 2], trace=TraceSink(enabled=True), fingerprint_at=window
    )
    assert len(compared) == len(plain.decisions) + len(traced.decisions)
    assert [d.fingerprint for d in traced.decisions] == [
        d.fingerprint for d in plain.decisions
    ]


def test_a_missed_invalidation_is_caught(compared, monkeypatch):
    """Teeth: plant the bug the memo invites — an activation that does not
    drop its site's entry — and the comparison above must fail."""

    real = Network._finish_activation

    def finish_without_marking(network, ctx):
        memo, network.endpoint_memo = network.endpoint_memo, None
        real(network, ctx)
        network.endpoint_memo = memo

    monkeypatch.setattr(Network, "_finish_activation", finish_without_marking)
    with pytest.raises(AssertionError, match="cached signature is stale"):
        run_schedule(_BENCH, [], fingerprint_at=range(0, 80))


def test_signature_calls_stay_below_three_per_fingerprint(signed, monkeypatch):
    """Four sites, so from scratch is 4 x: the memo must save at least a
    quarter of them on the bench shape (measured: 2.6 x at 100 runs)."""
    taken = []
    monkeypatch.setattr(
        runner,
        "cluster_fingerprint",
        lambda cluster: taken.append(1) or cluster_fingerprint(cluster),
    )
    explore(_BENCH, **_BENCH_BUDGET)
    assert 0 < len(signed) < 3 * len(taken)


# -- what the activation rule cannot vouch for ---------------------------------


def _armed_cluster(**config) -> Cluster:
    cluster = Cluster(SystemConfig(db_size=8, num_sites=3, seed=1, **config))
    cluster.network.endpoint_memo = {}
    return cluster


def _poke(site: DatabaseSite) -> None:
    """Change a site's protocol state behind the network's back."""
    site.alive = not site.alive


def test_an_unarmed_network_is_signed_from_scratch():
    cluster = Cluster(SystemConfig(db_size=8, num_sites=3, seed=1))
    before = cluster_fingerprint(cluster)
    _poke(cluster.sites[1])
    assert cluster_fingerprint(cluster) == reference_fingerprint(cluster) != before
    assert cluster.network.endpoint_memo is None


def test_a_pending_foreign_callback_re_signs_every_site():
    cluster = _armed_cluster()
    assert cluster_fingerprint(cluster) == reference_fingerprint(cluster)
    _poke(cluster.sites[1])
    # The memo's contract, stated as a test: state changed outside an
    # activation is not seen ...
    assert cluster_fingerprint(cluster) != reference_fingerprint(cluster)
    # ... unless something is pending that the rule does not know.
    cluster.scheduler.post(5.0, _poke, (cluster.sites[2],))
    assert cluster_fingerprint(cluster) == reference_fingerprint(cluster)
    cluster.scheduler.run()
    assert cluster_fingerprint(cluster) == reference_fingerprint(cluster)


def test_only_the_network_the_cpu_and_the_transport_post_to_the_scheduler():
    """The pending-callback fallback sees a foreign callback only while it
    is pending; one posted and fired between two choice points would slip
    by.  Nothing in ``src/`` can: the modules that post are these three,
    and their callbacks are the network's four plus the transport timer
    (which never runs in a check cluster and is foreign if it does)."""
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    posters = set()
    for path in set(src.rglob("*.py")) - {src / "sim" / "scheduler.py"}:
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("post", "post_at", "schedule", "schedule_at")
            ):
                posters.add(str(path.relative_to(src)))
    assert posters == {"net/network.py", "net/reliable.py", "sim/cpu.py"}


class _Crossed(WorkloadGenerator):
    """Write each other's items in opposite orders: a cross-site deadlock."""

    def generate(self, txn_seq, rng):
        first, second = (0, 1) if txn_seq % 2 else (1, 0)
        return [Operation(OpKind.WRITE, first), Operation(OpKind.WRITE, second)]


def test_a_detector_abort_retires_the_memo(signed):
    """Under ``concurrency_control`` the shared deadlock detector calls a
    victim's abort hook synchronously from whichever site's activation saw
    the cycle.  Today's hook re-spawns at the coordinator, but nothing
    makes a hook do that, so the rule does not vouch for such a cluster:
    every fingerprint re-signs every site and keeps nothing."""
    cluster = _armed_cluster(concurrency_control=True, max_txn_size=4)
    detector = cluster.install_deadlock_detector()
    manager = OpenLoopManager(cluster)
    cluster.network.replace_endpoint(manager)

    def probe(msg):
        del signed[:]
        assert cluster_fingerprint(cluster) == reference_fingerprint(cluster)
        assert signed[: len(cluster.sites)] == cluster.sites  # all, before any other
        assert cluster.network.endpoint_memo == {}

    cluster.network.delivery_probes.append(probe)
    manager.launch(_Crossed(), 60, arrival_rate_tps=60.0)
    cluster.scheduler.run()
    assert manager.finished and detector.victims


# -- the now-queue is pending too ------------------------------------------------


def test_a_same_instant_post_made_inside_a_handler_is_fingerprinted():
    """No tie_breaker (``--explore fates,faults``): ``EventScheduler.run``
    parks same-instant posts in its now-queue, not the heap.  Two states
    that differ only in such work must not collapse."""
    seen = {}

    def later():
        pass

    def handler(cluster, post: bool):
        if post:
            cluster.scheduler.post(0.0, later)
            assert not cluster.scheduler._heap and cluster.scheduler._nowq
        seen[post] = (pending_signature(cluster), cluster_fingerprint(cluster))

    for post in (False, True):
        cluster = _armed_cluster()
        cluster.scheduler.post(1.0, handler, (cluster, post))
        cluster.scheduler.run()
    assert seen[False][0] == ()
    assert [sig[1] for sig in seen[True][0]] == [later.__qualname__]
    assert seen[False][1] != seen[True][1]
