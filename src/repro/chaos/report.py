"""Deterministic text reports for chaos sweeps.

The formatter is intentionally free of wall-clock times, memory addresses,
and dict-order dependence: the same sweep formatted twice yields
byte-identical text, which is what the determinism acceptance check (and
diff-based regression workflows) rely on.
"""

from __future__ import annotations

from repro.chaos.runner import ChaosRunResult, ChaosSweepReport

_HEADER = (
    f"{'seed':>6} {'txns':>5} {'commits':>8} {'aborts':>7} "
    f"{'sched':>6} {'faults':>13} {'checks':>7} {'violations':>10}"
)


def format_run_row(result: ChaosRunResult) -> str:
    """One fixed-width row of the sweep table."""
    return (
        f"{result.seed:>6} {result.txns:>5} {result.commits:>8} "
        f"{result.aborts:>7} {result.schedule_actions:>6} "
        f"{result.fault_stats.describe():>13} {result.checks:>7} "
        f"{len(result.violations):>10}"
    )


def format_sweep_report(report: ChaosSweepReport) -> str:
    """The full sweep report as deterministic text."""
    lines = [
        "chaos sweep report",
        f"plan: {report.plan.describe()}",
        f"mutation: {'faillock setting DISABLED' if report.mutated else 'off'}",
        f"seeds: {len(report.results)}",
        "",
        _HEADER,
        "-" * len(_HEADER),
    ]
    for result in report.results:
        lines.append(format_run_row(result))
    lines.append("-" * len(_HEADER))
    lines.append(
        f"total: {report.total_checks} checks, "
        f"{report.total_violations} violations "
        f"(faults column is drop/dup/delay/reorder)"
    )
    # Transport-layer work done to survive the fault model (all zeros
    # without the retransmission sublayer), and the recovery periods run.
    results = report.results
    net = [r.net_stats for r in results if r.net_stats]
    lines.append(
        f"transport: {sum(s.retransmissions for s in net)} retransmissions, "
        f"{sum(s.duplicates_suppressed for s in net)} duplicates suppressed, "
        f"{sum(s.gave_up for s in net)} gave-up; "
        f"{len(report.stalled_seeds)} stalled run(s)"
    )
    lines.append(
        f"recovery: {sum(r.recovery_periods for r in results)} period(s) "
        f"closed, {sum(r.interrupted_recoveries for r in results)} "
        "interrupted by a re-failure"
    )
    dirty = report.dirty_seeds
    if dirty:
        lines.append("")
        lines.append(f"violations by seed ({len(dirty)} dirty):")
        # Dedupe by violation fingerprint: the first seed exhibiting a
        # violating schedule prints it in full; later seeds with the same
        # fingerprint (same invariants, same descriptions, different sim
        # times at most) get a one-line back-reference.  Mutated sweeps
        # otherwise drown the report in copies of one planted bug.
        first_seed_of: dict[str, int] = {}
        for result in report.results:
            if result.clean:
                continue
            fingerprint = result.violation_fingerprint()
            earlier = first_seed_of.get(fingerprint)
            if earlier is not None:
                lines.append(
                    f"  seed {result.seed}: same as seed {earlier} "
                    f"[sig {fingerprint}]"
                )
                continue
            first_seed_of[fingerprint] = result.seed
            lines.append(f"  seed {result.seed}: [sig {fingerprint}]")
            for record in result.violations:
                lines.append(f"    {record.format()}")
        duplicates = len(dirty) - len(first_seed_of)
        if duplicates:
            lines.append(
                f"  ({len(first_seed_of)} distinct violation signature(s); "
                f"{duplicates} duplicate seed(s) collapsed)"
            )
    else:
        lines.append("no invariant violations.")
    return "\n".join(lines) + "\n"
