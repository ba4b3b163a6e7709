"""Property-based tests (hypothesis) on the core data structures."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.faillocks import FailLockTable
from repro.core.strategy import QuorumStrategy, RowaStrategy, RowaaStrategy
from repro.metrics.stats import mean, median, percentile, stddev
from repro.sim.scheduler import EventScheduler
from repro.system.deadlock import find_cycle
from repro.txn.locks import LockManager, LockMode


SITES = st.integers(min_value=0, max_value=3)
ITEMS = st.integers(min_value=0, max_value=9)


# -- fail-lock table ------------------------------------------------------------


@given(st.lists(st.tuples(st.booleans(), ITEMS, SITES), max_size=60))
def test_faillock_count_matches_bits(ops):
    """count_for / locked_items_for / total_locks always agree with a
    straightforward model of the bit matrix."""
    table = FailLockTable(site_ids=[0, 1, 2, 3], item_ids=range(10))
    model: set[tuple[int, int]] = set()
    for is_set, item, site in ops:
        if is_set:
            table.set_lock(item, site)
            model.add((item, site))
        else:
            table.clear_lock(item, site)
            model.discard((item, site))
    for site in range(4):
        expected = sorted(i for i, s in model if s == site)
        assert table.locked_items_for(site) == expected
        assert table.count_for(site) == len(expected)
    assert table.total_locks() == len(model)


@given(st.lists(st.tuples(ITEMS, SITES), max_size=40))
def test_faillock_snapshot_install_roundtrip(locks):
    table = FailLockTable(site_ids=[0, 1, 2, 3], item_ids=range(10))
    for item, site in locks:
        table.set_lock(item, site)
    clone = FailLockTable(site_ids=[0, 1, 2, 3], item_ids=range(10))
    clone.install(table.snapshot())
    assert clone == table


@given(
    st.lists(ITEMS, min_size=1, max_size=10, unique=True),
    st.sets(SITES, max_size=3),
)
def test_update_with_recipients_partitions_bits(written, down_sites):
    """After commit maintenance, written items are locked for exactly the
    sites that did not receive the update."""
    table = FailLockTable(site_ids=[0, 1, 2, 3], item_ids=range(10))
    recipients = [site for site in range(4) if site == 0 or site not in down_sites]
    table.update_with_recipients({item: recipients for item in written})
    for item in written:
        for site in range(4):
            assert table.is_locked(item, site) == (site not in recipients)


# -- scheduler ordering -----------------------------------------------------------


@given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=40))
def test_scheduler_fires_in_nondecreasing_time(delays):
    sched = EventScheduler()
    fired = []
    for delay in delays:
        sched.schedule(delay, lambda: fired.append(sched.now))
    sched.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


# -- lock manager invariant -----------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["s", "x", "release"]),
            st.integers(min_value=1, max_value=5),   # txn
            ITEMS,
        ),
        max_size=80,
    )
)
def test_lock_manager_never_violates_compatibility(ops):
    lm = LockManager()
    for action, txn, item in ops:
        if action == "release":
            lm.release_all(txn)
        else:
            mode = LockMode.SHARED if action == "s" else LockMode.EXCLUSIVE
            lm.request(txn, item, mode)
        for _item, holders, _queue in lm.signature():
            modes = [mode for _txn, mode in holders]
            assert modes == ["X"] or set(modes) == {"S"}, holders


@given(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)), max_size=30))
def test_waits_for_graph_cycle_iff_model_cycle(edges):
    """find_cycle() agrees with a brute-force reachability check."""
    model = {(a, b) for a, b in edges if a != b}
    graph = {
        a: tuple(sorted(y for x, y in model if x == a)) for a, _b in model
    }

    def reachable(start, goal):
        seen, stack = set(), [start]
        while stack:
            node = stack.pop()
            for x, y in model:
                if x == node and y not in seen:
                    if y == goal:
                        return True
                    seen.add(y)
                    stack.append(y)
        return False

    has_cycle = any(reachable(b, a) for a, b in model)
    cycle = find_cycle(graph)
    assert bool(cycle) == has_cycle
    if cycle:
        # The returned cycle is a real cycle in the model.
        for i, node in enumerate(cycle):
            nxt = cycle[(i + 1) % len(cycle)]
            assert (node, nxt) in model


# -- statistics ------------------------------------------------------------------------


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
def test_stats_bounds(values):
    eps = 1e-6  # float summation can exceed max() by an ulp or two
    assert min(values) - eps <= mean(values) <= max(values) + eps
    assert min(values) <= median(values) <= max(values)
    assert stddev(values) >= 0
    assert min(values) <= percentile(values, 50) <= max(values)


@given(
    st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50),
    st.floats(min_value=0, max_value=100),
)
def test_percentile_monotone_in_p(values, p):
    lower = percentile(values, max(0.0, p - 10))
    assert percentile(values, p) >= lower - 1e-9


# -- replication availability ------------------------------------------------------------


@given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=1, max_value=7))
def test_rowaa_dominates_everything(p, n):
    rowaa = RowaaStrategy(n).write_availability(p)
    rowa = RowaStrategy(n).write_availability(p)
    assert rowaa >= rowa - 1e-12
    if n >= 3:
        quorum = QuorumStrategy(n).write_availability(p)
        assert rowa - 1e-12 <= quorum <= rowaa + 1e-12


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_availability_monotone_in_p(p1, p2):
    lo, hi = sorted((p1, p2))
    s = QuorumStrategy(5)
    assert s.write_availability(lo) <= s.write_availability(hi) + 1e-12


# -- end-to-end property: consistency invariant under random failure scripts -------------


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    fail_at=st.integers(min_value=1, max_value=10),
    down_for=st.integers(min_value=1, max_value=10),
    site=st.integers(min_value=0, max_value=2),
)
def test_random_failure_scripts_preserve_consistency(seed, fail_at, down_for, site):
    """For any single fail/recover script, the run completes, the audit
    passes, and fail-locks exactly track staleness."""
    from repro.system.cluster import Cluster
    from repro.system.config import SystemConfig
    from repro.system.scenario import FailSite, RecoverSite, Scenario
    from repro.workload.uniform import UniformWorkload

    config = SystemConfig(
        db_size=8, num_sites=3, max_txn_size=3, seed=seed
    )
    scenario = Scenario(
        workload=UniformWorkload(config.item_ids, config.max_txn_size),
        txn_count=fail_at + down_for + 10,
    )
    scenario.add_action(fail_at, FailSite(site))
    scenario.add_action(fail_at + down_for, RecoverSite(site))
    cluster = Cluster(config)
    metrics = cluster.run(scenario)
    assert cluster.audit_consistency() == []
    assert metrics.counters["commits"] + metrics.counters["aborts"] == (
        fail_at + down_for + 10
    )
