#!/usr/bin/env python3
"""Quickstart: build a mini-RAID cluster, fail a site, watch it recover.

Runs the smallest interesting scenario — two sites, one failure, one
recovery — and prints the transaction outcomes, the fail-lock trajectory,
and the final consistency audit.

Usage::

    python examples/quickstart.py
"""

from repro import Cluster, FailSite, RecoverSite, Scenario, SystemConfig


def main() -> None:
    # The paper's Experiment 2 configuration: 50 items, 2 sites, txns of
    # at most 5 operations.
    config = SystemConfig(db_size=50, num_sites=2, max_txn_size=5, seed=7)
    cluster = Cluster(config)

    # No workload given: the run submits the paper's uniform random
    # transactions over this configuration.
    scenario = Scenario(
        txn_count=60,
        until_recovered=(0,),   # keep going until site 0 is fully refreshed
        max_txns=500,
    )
    scenario.add_action(1, FailSite(0))      # before txn 1: site 0 crashes
    scenario.add_action(31, RecoverSite(0))  # before txn 31: it comes back

    metrics = cluster.run(scenario)

    print(f"transactions run : {len(metrics.txns)}")
    print(f"commits / aborts : {metrics.counters['commits']} / "
          f"{metrics.counters['aborts']}")
    print(f"copier txns      : {metrics.counters.get('copiers')}")
    print(f"control txns     : type1={metrics.counters.get('control_type1')} "
          f"type2={metrics.counters.get('control_type2')}")
    print(f"simulated time   : {cluster.now / 1000:.1f} s")

    peak = max(v for _seq, v in metrics.faillock_series(0))
    print(f"\nsite 0 fail-locks peaked at {peak}/{config.db_size} "
          f"and ended at {cluster.faillock_counts()[0]}")

    violations = cluster.audit_consistency()
    print(f"consistency audit: {'CLEAN' if not violations else violations}")


if __name__ == "__main__":
    main()
