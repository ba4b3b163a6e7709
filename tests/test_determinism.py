"""Reproducibility: identical configs produce identical runs."""

from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.system.scenario import FailSite, RecoverSite

from conftest import copies, make_scenario, messages


def run_once(seed=31, obs=False):
    config = SystemConfig(db_size=20, num_sites=3, max_txn_size=5, seed=seed)
    scenario = make_scenario(config, 40)
    scenario.add_action(5, FailSite(1))
    scenario.add_action(25, RecoverSite(1))
    cluster = Cluster(config)
    cluster.obs.enabled = obs
    metrics = cluster.run(scenario)
    return cluster, metrics


def fingerprint(cluster, metrics):
    return (
        cluster.now,
        [(t.seq, t.coordinator, t.committed, t.coordinator_elapsed)
         for t in metrics.txns],
        [(s.seq, tuple(sorted(s.locks_per_site.items())))
         for s in metrics.faillock_samples],
        [copies(site.db) for site in cluster.sites],
        cluster.network.messages_sent,
    )


def test_same_seed_identical_runs():
    a = fingerprint(*run_once())
    b = fingerprint(*run_once())
    assert a == b


def test_different_seed_differs():
    a = fingerprint(*run_once(seed=31))
    b = fingerprint(*run_once(seed=32))
    assert a != b


def test_message_trace_identical():
    """Every traced event — each message's send, receive or drop with its
    times and causal parent, and every protocol step between — repeats."""
    c1, _ = run_once(obs=True)
    c2, _ = run_once(obs=True)
    assert messages(c1) and c1.obs.dropped_events == 0
    assert list(c1.obs.events) == list(c2.obs.events)


def test_experiment_runners_are_deterministic():
    from repro.experiments import run_scenario2

    a = run_scenario2(seed=7, settle=False)
    b = run_scenario2(seed=7, settle=False)
    assert a.series == b.series
    assert a.aborts == b.aborts
