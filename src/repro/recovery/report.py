"""Byte-deterministic recovery-time report: build, validate, render.

Schema ``repro.recovery/1``.  Same discipline as ``repro.soak/1``: every
number derives from the seeded simulation, floats are rounded to fixed
precision, dict insertion order is fixed — so the same matrix always
serializes to the same bytes, which CI asserts by re-running and
comparing artifacts.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import ConfigurationError
from repro.obs.schema import Num, check
from repro.recovery.experiment import RecoveryCell

__all__ = [
    "RECOVERY_SCHEMA",
    "build_recovery_report",
    "validate_recovery_report",
    "render_recovery_text",
    "write_recovery_svg",
]

RECOVERY_SCHEMA = "repro.recovery/1"


def _round(value: float, digits: int = 3) -> float:
    return round(value, digits)


def build_recovery_report(
    cells: list[RecoveryCell],
    *,
    seed: int,
    wire_latency_ms: float = 9.0,
) -> dict:
    """Assemble the ``repro.recovery/1`` document from a finished matrix."""
    if not cells:
        raise ConfigurationError("recovery report needs at least one cell")
    donor_counts = sorted({c.donors for c in cells})
    stale_sizes = sorted({c.stale_items for c in cells})
    policies = sorted({c.policy for c in cells})
    cell_docs = [
        {
            "policy": c.policy,
            "donors": c.donors,
            "stale_items": c.stale_items,
            "recovery_ms": _round(c.recovery_ms),
            "initial_stale": c.initial_stale,
            "copier_requests": c.copier_requests,
            "batch_copier_requests": c.batch_copier_requests,
            "refreshed_by_write": c.refreshed_by_write,
            "refreshed_by_copier": c.refreshed_by_copier,
        }
        for c in sorted(
            cells, key=lambda c: (c.policy, c.donors, c.stale_items)
        )
    ]
    # Pairwise speedup: sequential two_step over parallel, per matrix
    # point present for both policies.
    by_key = {(c.policy, c.donors, c.stale_items): c for c in cells}
    speedups = []
    for donors in donor_counts:
        for stale in stale_sizes:
            sequential = by_key.get(("two_step", donors, stale))
            parallel = by_key.get(("parallel", donors, stale))
            if sequential is None or parallel is None:
                continue
            speedups.append(
                {
                    "donors": donors,
                    "stale_items": stale,
                    "two_step_ms": _round(sequential.recovery_ms),
                    "parallel_ms": _round(parallel.recovery_ms),
                    "speedup": _round(
                        sequential.recovery_ms / parallel.recovery_ms
                    ),
                }
            )
    at_4plus = [s["speedup"] for s in speedups if s["donors"] >= 4]
    return {
        "schema": RECOVERY_SCHEMA,
        "config": {
            "seed": seed,
            "wire_latency_ms": wire_latency_ms,
            "donor_counts": donor_counts,
            "stale_sizes": stale_sizes,
            "policies": policies,
        },
        "cells": cell_docs,
        "speedup": {
            "pairs": speedups,
            # The acceptance quantity: the WORST parallel-vs-sequential
            # ratio across all 4+-donor matrix points.
            "min_at_4plus_donors": min(at_4plus) if at_4plus else None,
        },
    }


RECOVERY_SPEC = {
    "schema": RECOVERY_SCHEMA,
    "config": {
        "seed": int,
        "wire_latency_ms": float,
        "donor_counts": [int],
        "stale_sizes": [int],
        "policies": [str],
    },
    "cells": [{
        "policy": str,
        "donors": int,
        "stale_items": int,
        "recovery_ms": Num(float, lo=0, lo_open=True),
        "initial_stale": int,
        "copier_requests": int,
        "batch_copier_requests": int,
        "refreshed_by_write": int,
        "refreshed_by_copier": int,
    }],
    "speedup": {
        "pairs": [{
            "donors": int,
            "stale_items": int,
            "two_step_ms": float,
            "parallel_ms": float,
            "speedup": float,
        }],
        "min_at_4plus_donors": (float, None),
    },
}


def validate_recovery_report(doc: dict) -> list[str]:
    """Structural validation; returns a list of problems (empty = valid)."""
    problems = check(doc, RECOVERY_SPEC)
    if problems:
        return problems
    if not doc["cells"]:
        problems.append("cells: empty matrix")
    for i, cell in enumerate(doc["cells"]):
        if cell["initial_stale"] != cell["stale_items"]:
            # A cold crash stales the full database at the riser; a
            # mismatch means the cell measured something else.
            problems.append(
                f"cells[{i}]: initial_stale {cell['initial_stale']} != "
                f"stale_items {cell['stale_items']}"
            )
    for i, pair in enumerate(doc["speedup"]["pairs"]):
        parallel = pair["parallel_ms"]
        if parallel > 0 and abs(
            pair["speedup"] - pair["two_step_ms"] / parallel
        ) > 0.01:
            problems.append(
                f"speedup.pairs[{i}]: speedup {pair['speedup']} "
                "inconsistent with timings"
            )
    return problems


def _series_by_policy(doc: dict, stale_items: int) -> dict[str, list]:
    """recovery_ms vs donor count, one series per policy, at one stale size."""
    series: dict[str, list] = {}
    for cell in doc["cells"]:
        if cell["stale_items"] != stale_items:
            continue
        series.setdefault(cell["policy"], []).append(
            (float(cell["donors"]), cell["recovery_ms"])
        )
    for points in series.values():
        points.sort()
    return dict(sorted(series.items()))


def render_recovery_text(doc: dict) -> str:
    """Human-readable report: matrix table, speedups, ASCII chart."""
    from repro.viz.ascii_chart import render_series

    config = doc["config"]
    lines = [
        f"recovery-time matrix (seed={config['seed']}, "
        f"wire={config['wire_latency_ms']} ms): "
        f"donors {config['donor_counts']} x stale {config['stale_sizes']} "
        f"x policies {config['policies']}",
        "",
        f"{'policy':>10} {'donors':>6} {'stale':>6} {'recovery_ms':>12} "
        f"{'by_copier':>9} {'by_write':>8} {'batches':>7}",
    ]
    for cell in doc["cells"]:
        lines.append(
            f"{cell['policy']:>10} {cell['donors']:>6} "
            f"{cell['stale_items']:>6} {cell['recovery_ms']:>12.1f} "
            f"{cell['refreshed_by_copier']:>9} "
            f"{cell['refreshed_by_write']:>8} "
            f"{cell['batch_copier_requests']:>7}"
        )
    pairs = doc["speedup"]["pairs"]
    if pairs:
        lines.append("")
        lines.append("speedup (two_step / parallel):")
        for pair in pairs:
            lines.append(
                f"  donors={pair['donors']} stale={pair['stale_items']}: "
                f"{pair['two_step_ms']:.1f} ms / {pair['parallel_ms']:.1f} ms "
                f"= {pair['speedup']:.2f}x"
            )
        floor = doc["speedup"]["min_at_4plus_donors"]
        if floor is not None:
            lines.append(f"  minimum at 4+ donors: {floor:.2f}x")
    largest = max(config["stale_sizes"])
    series = _series_by_policy(doc, largest)
    if series:
        lines.append("")
        lines.append(
            render_series(
                series,
                title=f"recovery time vs donors (stale={largest})",
                height=10,
                x_label="donors",
            )
        )
    return "\n".join(lines)


def write_recovery_svg(doc: dict, path: str | Path) -> Path:
    """Figure hook: recovery time vs donor count, one line per policy,
    at the largest stale size in the matrix."""
    from repro.viz.svg_chart import figure_svg

    largest = max(doc["config"]["stale_sizes"])
    figure_svg(
        _series_by_policy(doc, largest),
        title=f"recovery time vs donor count (stale={largest} items)",
        path=path,
        x_label="donor count",
        y_label="recovery time (ms)",
    )
    return Path(path)
