"""Property tests over randomized failure/recovery scripts.

The paper's invariant — fail-locks exactly track which copies are out of
date, so the system returns to consistency — must hold for *any* script of
failures and recoveries, not just the three the paper ran.  Hypothesis
generates scripts; the cluster must (a) finish, (b) pass the consistency
audit, and (c) account for every transaction.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.system.scenario import FailSite, RecoverSite, Scenario
from repro.workload.uniform import UniformWorkload

from conftest import FREE_COSTS


@st.composite
def failure_scripts(draw):
    """A legal script over 3 sites and up to 30 transactions.

    Legality: never fail the last up site (the managing site cannot submit
    with everyone down), never fail a down site, never recover an up site,
    and end with at least one recovery so locks can clear.
    """
    num_sites = 3
    up = {0, 1, 2}
    actions: list[tuple[int, object]] = []
    seq = 1
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        seq += draw(st.integers(min_value=1, max_value=6))
        do_fail = draw(st.booleans())
        if do_fail and len(up) > 1:
            victim = draw(st.sampled_from(sorted(up)))
            up.discard(victim)
            actions.append((seq, FailSite(victim)))
        elif len(up) < num_sites:
            down = sorted(set(range(num_sites)) - up)
            riser = draw(st.sampled_from(down))
            up.add(riser)
            actions.append((seq, RecoverSite(riser)))
    # Bring everyone back at the end.
    seq += 2
    for site in sorted(set(range(num_sites)) - up):
        actions.append((seq, RecoverSite(site)))
        seq += 1
    total = seq + draw(st.integers(min_value=5, max_value=15))
    return actions, total


@settings(max_examples=20, deadline=None)
@given(script=failure_scripts(), seed=st.integers(min_value=0, max_value=9999))
def test_any_failure_script_ends_consistent(script, seed):
    actions, total = script
    config = SystemConfig(
        db_size=8, num_sites=3, max_txn_size=3, seed=seed, costs=FREE_COSTS
    )
    scenario = Scenario(
        workload=UniformWorkload(config.item_ids, config.max_txn_size),
        txn_count=total,
    )
    for before, action in actions:
        scenario.add_action(before, action)
    cluster = Cluster(config)
    metrics = cluster.run(scenario)
    # (a) it finished (run() raises on stall); (b) consistency holds:
    assert cluster.audit_consistency() == []
    # (c) every transaction is accounted for.
    assert metrics.counters["commits"] + metrics.counters["aborts"] == total
    # (d) survivor fail-lock tables agree with each other.
    up_sites = [s for s in cluster.sites if s.alive]
    for site in up_sites[1:]:
        assert site.faillocks == up_sites[0].faillocks


@settings(max_examples=10, deadline=None)
@given(script=failure_scripts(), seed=st.integers(min_value=0, max_value=9999))
def test_any_failure_script_under_timeout_detection(script, seed):
    from repro.system.config import FailureDetection

    actions, total = script
    config = SystemConfig(
        db_size=8,
        num_sites=3,
        max_txn_size=3,
        seed=seed,
        costs=FREE_COSTS,
        detection=FailureDetection.TIMEOUT,
    )
    scenario = Scenario(
        workload=UniformWorkload(config.item_ids, config.max_txn_size),
        txn_count=total,
    )
    for before, action in actions:
        scenario.add_action(before, action)
    cluster = Cluster(config)
    metrics = cluster.run(scenario)
    assert cluster.audit_consistency() == []
    assert metrics.counters["commits"] + metrics.counters["aborts"] == total
