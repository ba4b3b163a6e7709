#!/usr/bin/env python3
"""ROWAA vs strict ROWA vs quorum consensus.

Two views of the availability trade-off the paper's introduction frames,
both from the strategy objects the cluster runs (``repro.core.strategy``):

1. *Simulated*: the Experiment 3 scenario-2 failure script run under each
   strategy, counting commits and aborts.
2. *Analytic*: closed-form read/write availability of the same predicates
   when every site is independently up with probability p.

Usage::

    python examples/strategy_comparison.py
"""

from repro.experiments.ablations import run_strategy_comparison
from repro.experiments.report import format_table
from repro.core.strategy import COPY_CONTROL


def main() -> None:
    print("Simulated: scenario-2 failure script (4 sites failing in turn)\n")
    rows = [
        (r.strategy, r.commits, r.aborts,
         ", ".join(f"{k}={v}" for k, v in sorted(r.abort_reasons.items())) or "-")
        for r in run_strategy_comparison()
    ]
    print(format_table(["strategy", "commits", "aborts", "abort reasons"], rows))

    print("\nAnalytic: operation availability over 4 sites, site-up probability p\n")
    strategies = {s.value: control(4) for s, control in COPY_CONTROL.items()}
    header = ["p", *(f"{name} read" for name in strategies),
              *(f"{name} write" for name in strategies)]
    table = []
    for p in (0.90, 0.95, 0.99):
        row: list[object] = [p]
        row += [f"{s.read_availability(p):.6f}" for s in strategies.values()]
        row += [f"{s.write_availability(p):.6f}" for s in strategies.values()]
        table.append(row)
    print(format_table(header, table))
    print(
        "\nROWAA keeps writes available whenever *any* copy survives — the "
        "availability the paper buys with fail-locks; strict ROWA loses "
        "writes to every single-site failure, and quorum tolerates a "
        "minority of failures."
    )


if __name__ == "__main__":
    main()
