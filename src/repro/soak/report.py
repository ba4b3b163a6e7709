"""Byte-deterministic soak report: build, validate, render.

Schema ``repro.soak/1``.  Every number in the document derives from the
seeded simulation (no wall-clock, no environment), floats are rounded to
fixed precision, and dict insertion order is fixed — so the same seed
always serializes to the same bytes, which CI asserts by re-running and
comparing artifacts.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from repro.obs.schema import Num, check
from repro.soak.engine import SoakResult

__all__ = [
    "SOAK_SCHEMA",
    "build_report",
    "validate_soak_report",
    "render_soak_text",
    "write_soak_svg",
]

SOAK_SCHEMA = "repro.soak/1"

# A window's availability counts as "recovered" once it is back within
# this much of the pre-fail baseline (documented in docs/SOAK.md).
RECOVERY_TOLERANCE = 0.05


def _round(value: Optional[float], digits: int = 3) -> Optional[float]:
    if value is None:
        return None
    return round(value, digits)


def _latency_block(digest) -> dict:
    """Latency summary from a :class:`LatencyDigest` (sketch quantiles)."""
    stats = digest.stats
    empty = stats.count == 0
    return {
        "count": stats.count,
        "mean": _round(stats.mean) if not empty else None,
        "p50": _round(digest.quantile(50.0)) if not empty else None,
        "p95": _round(digest.quantile(95.0)) if not empty else None,
        "p99": _round(digest.quantile(99.0)) if not empty else None,
        "min": _round(stats.minimum) if not empty else None,
        "max": _round(stats.maximum) if not empty else None,
        "stddev": _round(stats.stddev) if not empty else None,
    }


def _availability_analysis(
    windows: list[dict], fault: Optional[dict], window_ms: float
) -> dict:
    """Baseline / dip / time-to-recover from the windowed series.

    The dip is the worst availability window inside the *fault region* —
    from the crash until shortly after recovery completed (a few windows
    of slack for post-recovery lock churn) — so ordinary contention noise
    elsewhere in the run cannot masquerade as the dip.
    """
    defined = [w for w in windows if w["availability"] is not None]
    overall = (
        sum(w["availability"] for w in defined) / len(defined) if defined else None
    )
    analysis: dict = {
        "overall": _round(overall, 4),
        "baseline": None,
        "dip": None,
        "dip_t_ms": None,
        "recovered": None,
        "time_to_baseline_ms": None,
    }
    if fault is None or fault.get("failed_at_ms") is None:
        return analysis
    fail_at = fault["failed_at_ms"]
    region_end = fault.get("recover_done_ms")
    if region_end is None:
        region_end = defined[-1]["t_ms"] if defined else fail_at
    region_end += 5.0 * window_ms
    before = [w for w in defined if w["t_ms"] < fail_at]
    region = [w for w in defined if fail_at <= w["t_ms"] <= region_end]
    if not before or not region:
        return analysis
    baseline = sum(w["availability"] for w in before) / len(before)
    dip_window = min(region, key=lambda w: (w["availability"], w["t_ms"]))
    analysis["baseline"] = _round(baseline, 4)
    analysis["dip"] = _round(dip_window["availability"], 4)
    analysis["dip_t_ms"] = _round(dip_window["t_ms"])
    threshold = baseline - RECOVERY_TOLERANCE
    recovered_at = next(
        (
            w["t_ms"]
            for w in defined
            if w["t_ms"] > dip_window["t_ms"] and w["availability"] >= threshold
        ),
        None,
    )
    analysis["recovered"] = recovered_at is not None
    if recovered_at is not None:
        analysis["time_to_baseline_ms"] = _round(recovered_at - fail_at)
    return analysis


def build_report(result: SoakResult) -> dict:
    """Assemble the ``repro.soak/1`` document from a finished run."""
    config = result.config
    sink = result.sink
    fault_doc = None
    if result.fault is not None:
        fault = result.fault
        fault_doc = {
            "site": fault.site,
            "fail_at_ms": _round(fault.fail_at_ms),
            "recover_at_ms": _round(fault.recover_at_ms),
            "failed_at_ms": _round(fault.failed_at_ms),
            "recover_done_ms": _round(fault.recover_done_ms),
            "lost_txns": fault.lost_txns,
        }
    windows = []
    for window in sink.windows.windows:
        latency = window.latency
        windows.append(
            {
                "t_ms": _round(window.start_ms),
                "arrivals": window.arrivals,
                "commits": window.commits,
                "aborts": window.aborts,
                "availability": _round(window.availability, 4),
                "mean_ms": _round(latency.mean) if latency.count else None,
                "p95_ms": _round(window.p95.value()) if latency.count else None,
                "in_flight": window.in_flight,
                "faillocks": window.faillocks,
            }
        )
    abort_reasons = {
        reason: count for reason, count in sorted(sink.abort_reasons.items())
    }
    exemplars = sorted(sink.exemplars.items, key=lambda e: e["txn"])
    for exemplar in exemplars:
        exemplar["submitted_at"] = _round(exemplar["submitted_at"])
        exemplar["latency_ms"] = _round(exemplar["latency_ms"])
    doc = {
        "schema": SOAK_SCHEMA,
        "config": {
            "seed": config.seed,
            "txns": config.txns,
            "rate_tps": config.rate_tps,
            "shape": config.shape,
            "peak_tps": config.peak_tps,
            "period_ms": config.period_ms,
            "workload": config.workload,
            "skew": config.skew,
            "storm_every_ms": config.storm_every_ms,
            "num_sites": config.num_sites,
            "db_size": config.db_size,
            "max_txn_size": config.max_txn_size,
            "cores": config.cores,
            "wire_latency_ms": config.wire_latency_ms,
            "detection": config.detection,
            "window_ms": config.window_ms,
            "rel_err": config.rel_err,
            "exemplars": config.exemplars,
            "fail_site": config.fail_site,
        },
        "totals": {
            "txns": result.txns,
            "commits": result.commits,
            "aborts": result.aborts,
            "lost": result.lost,
            "abort_reasons": abort_reasons,
            "elapsed_ms": _round(result.elapsed_ms),
            "throughput_tps": _round(result.throughput_tps),
            "abort_rate": _round(result.abort_rate, 4),
            "events_fired": result.events_fired,
            "lock_parks": result.lock_parks,
            "deadlocks_detected": result.deadlocks_detected,
            "status_inquiries": result.status_inquiries,
        },
        "latency_ms": _latency_block(sink.latency_committed),
        "latency_all_ms": _latency_block(sink.latency_all),
        "fault": fault_doc,
        "windows": {
            # The width the run actually used (config.window_ms widened so
            # the series stays under config.max_windows points).
            "window_ms": sink.windows.window_ms,
            "series": windows,
        },
        "availability": _availability_analysis(
            windows, fault_doc, sink.windows.window_ms
        ),
        "exemplars": exemplars,
    }
    if config.recovery_policy != "on_demand":
        # Recovery-period accounting, surfaced only for the non-default
        # policies so default-config reports stay byte-identical to those
        # of earlier revisions (same gating discipline as the chaos
        # report's recovery line).
        doc["config"]["recovery_policy"] = config.recovery_policy
        doc["recoveries"] = [
            {
                "site": r.site_id,
                "policy": r.policy,
                "started_at_ms": _round(r.started_at),
                "finished_at_ms": _round(r.finished_at),
                "elapsed_ms": _round(r.elapsed),
                "initial_stale": r.initial_stale,
                "copier_requests": r.copier_requests,
                "batch_copier_requests": r.batch_copier_requests,
                "refreshed_by_write": r.refreshed_by_write,
                "refreshed_by_copier": r.refreshed_by_copier,
                "interrupted": r.interrupted,
            }
            for r in result.recoveries
        ]
    return doc


# What a reader of ``repro.soak/1`` may rely on: the keys `repro soak
# validate` and the cross-field rules below read (build_report writes more).
SOAK_SPEC = {
    "schema": SOAK_SCHEMA,
    "config": {"txns": int},
    "totals": {
        "txns": int, "commits": int, "aborts": int, "lost": int,
        "events_fired": int,
    },
    "latency_ms": dict,
    "latency_all_ms": dict,
    "windows": {
        "series": [{
            "t_ms": float, "arrivals": float, "commits": float,
            "aborts": float, "availability?": (Num(float, 0.0, 1.0), None),
        }],
    },
    "availability": dict,
    "exemplars?": list,
}


def validate_soak_report(doc: dict) -> list[str]:
    """Structural validation; returns a list of problems (empty = valid)."""
    problems = check(doc, SOAK_SPEC)
    if problems:
        return problems
    totals = doc["totals"]
    if totals["commits"] + totals["aborts"] != totals["txns"]:
        problems.append(
            f"totals: commits + aborts != txns "
            f"({totals['commits']} + {totals['aborts']} != {totals['txns']})"
        )
    if totals["txns"] != doc["config"]["txns"]:
        problems.append(
            f"totals.txns {totals['txns']} != config.txns "
            f"{doc['config']['txns']}"
        )
    series = doc["windows"]["series"]
    last_t = -1.0
    for i, window in enumerate(series):
        if window["t_ms"] <= last_t:
            problems.append(
                f"windows.series[{i}].t_ms not increasing: {window['t_ms']}"
            )
        last_t = window["t_ms"]
    done = sum(w["commits"] + w["aborts"] for w in series)
    if done != totals["txns"]:
        problems.append(
            f"windows account for {done} completions, totals say "
            f"{totals['txns']}"
        )
    return problems


def _series_points(doc: dict, key: str) -> list[tuple[float, float]]:
    return [
        (w["t_ms"], w[key])
        for w in doc["windows"]["series"]
        if w.get(key) is not None
    ]


def render_soak_text(doc: dict) -> str:
    """Human-readable report: totals, fault timeline, ASCII charts."""
    from repro.viz.ascii_chart import render_series

    totals = doc["totals"]
    latency = doc["latency_ms"]
    lines = [
        f"soak: {totals['txns']} txns over {totals['elapsed_ms']:.0f} ms "
        f"(shape={doc['config']['shape']}, workload={doc['config']['workload']}, "
        f"seed={doc['config']['seed']})",
        f"  commits={totals['commits']} aborts={totals['aborts']} "
        f"(lost={totals['lost']}) abort_rate={totals['abort_rate']:.2%} "
        f"throughput={totals['throughput_tps']:.1f} tps",
        f"  committed latency ms: mean={latency['mean']} p50={latency['p50']} "
        f"p95={latency['p95']} p99={latency['p99']} max={latency['max']}",
    ]
    fault = doc.get("fault")
    availability = doc["availability"]
    if fault is not None and fault.get("failed_at_ms") is not None:
        lines.append(
            f"  fault: site {fault['site']} failed at {fault['failed_at_ms']:.0f} ms "
            f"(lost {fault['lost_txns']} in-flight), recover done at "
            f"{fault['recover_done_ms'] if fault['recover_done_ms'] is not None else '-'} ms"
        )
        if availability["baseline"] is not None:
            recovery = (
                f"{availability['time_to_baseline_ms']:.0f} ms"
                if availability.get("time_to_baseline_ms") is not None
                else "never"
            )
            lines.append(
                f"  availability: baseline={availability['baseline']:.3f} "
                f"dip={availability['dip']:.3f} at {availability['dip_t_ms']:.0f} ms, "
                f"back to baseline in {recovery}"
            )
    recoveries = doc.get("recoveries")
    if recoveries is not None:
        closed = [r for r in recoveries if not r["interrupted"]]
        lines.append(
            f"  recovery ({doc['config'].get('recovery_policy', '?')}): "
            f"{len(recoveries)} period(s), {len(recoveries) - len(closed)} "
            f"interrupted"
        )
        for r in closed:
            lines.append(
                f"    site {r['site']}: {r['elapsed_ms']:.1f} ms to clear "
                f"{r['initial_stale']} stale item(s) "
                f"({r['refreshed_by_copier']} by copier, "
                f"{r['refreshed_by_write']} by write)"
            )
    for key, name, title in (
        ("availability", "availability", "availability per window"),
        ("p95_ms", "p95 latency (ms)", "latency p95 per window"),
    ):
        points = _series_points(doc, key)
        if points:
            lines.append("")
            lines.append(
                render_series(
                    {name: points}, title=title, height=10, x_label="time (ms)"
                )
            )
    return "\n".join(lines)


def write_soak_svg(doc: dict, path: str | Path) -> Path:
    """Figure hook: availability + p95 latency series as one SVG."""
    from repro.viz.svg_chart import figure_svg

    series = {
        # Availability in percent, so both series share an axis range.
        "availability (%)": [
            (t, v * 100.0) for t, v in _series_points(doc, "availability")
        ],
        "p95 latency (ms)": _series_points(doc, "p95_ms"),
    }
    figure_svg(
        {name: points for name, points in series.items() if points},
        title="soak: availability and latency",
        path=path,
        x_label="time (ms)",
        y_label="availability (%) / p95 latency (ms)",
    )
    return Path(path)
