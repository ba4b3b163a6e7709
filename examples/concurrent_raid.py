#!/usr/bin/env python3
"""The "complete RAID" mode: concurrent transactions with 2PL.

Mini-RAID processed transactions serially; the paper's future work was to
re-run the protocol in the complete RAID system with concurrency control.
This example runs that extension: Poisson arrivals over a 4-site cluster
(one core per machine, 9 ms wire latency), strict two-phase locking at
every site, and a global deadlock detector that aborts the youngest
transaction in any cycle.

Usage::

    python examples/concurrent_raid.py
"""

from repro.experiments.ablations import run_concurrent_sweep
from repro.experiments.report import format_table


def main() -> None:
    sweep = run_concurrent_sweep(
        seed=42, rates=(1.0, 3.0, 6.0, 12.0, 24.0), txns=400
    )
    rows = [
        (
            f"{rate:.0f}",
            f"{result.throughput_tps:.1f}",
            f"{result.latency.mean:.0f} ms",
            f"{result.latency.p95:.0f} ms",
            result.lock_parks,
            result.deadlock_aborts,
        )
        for rate, result in sweep.items()
    ]
    print("Open-loop sweep: 4 sites, db=50, max txn size 5, strict 2PL\n")
    print(
        format_table(
            ["arrival (tps)", "throughput (tps)", "mean latency",
             "p95 latency", "lock waits", "deadlock aborts"],
            rows,
        )
    )
    print(
        "\nBelow saturation, throughput tracks the offered load and latency "
        "stays near the serial commit time; as contention rises, lock waits "
        "queue and cross-site write-write cycles appear, resolved by the "
        "global detector at the cost of aborting the youngest transaction."
    )


if __name__ == "__main__":
    main()
