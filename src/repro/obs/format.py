"""Deterministic text rendering for traces (the ``repro trace`` CLI).

Everything here prints from exported artifacts or in-memory events only —
no wall-clock, no environment — so output is stable across runs and safe
to golden-test.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Optional

from repro.obs.events import TraceEvent
from repro.obs.export import load_events, load_manifest
from repro.obs.timeline import TxnTimeline, build_timelines

_BAR_WIDTH = 40


def render_timeline(timeline: TxnTimeline) -> str:
    """The ``repro trace show <txn>`` view: a phase-attributed timeline.

    The phase durations printed here are exact segments of the measured
    window, so the "sum of phases" line always equals the elapsed line —
    that is the attribution invariant, not a rounding accident.
    """
    lines: list[str] = []
    outcome = (
        "committed"
        if timeline.committed
        else f"ABORTED ({timeline.abort_reason})"
        if timeline.committed is False
        else "no outcome recorded"
    )
    lines.append(
        f"txn {timeline.txn_id} @ site {timeline.coordinator} — {outcome}"
    )
    lines.append(
        f"  window  [{timeline.begin:.3f} .. {timeline.end:.3f}] ms"
        f"   elapsed {timeline.elapsed:.3f} ms"
        f"   messages {timeline.messages()}"
    )
    lines.append("")
    lines.append(f"  {'phase':<12} {'ms':>10}  {'share':>6}")
    elapsed = timeline.elapsed
    for phase, total in timeline.phase_totals().items():
        share = (total / elapsed) if elapsed > 0 else 0.0
        bar = "#" * max(1, round(share * _BAR_WIDTH)) if total > 0 else ""
        lines.append(f"  {phase:<12} {total:>10.3f}  {share:>5.1%}  {bar}")
    lines.append(
        f"  {'sum':<12} {sum(s.duration for s in timeline.phases):>10.3f}"
    )
    lines.append("")
    lines.append("  segments:")
    for span in timeline.phases:
        lines.append(
            f"    {span.start:>10.3f} .. {span.end:>10.3f}"
            f"  {span.duration:>9.3f} ms  {span.phase}"
        )
    return "\n".join(lines)


def render_causal_tree(
    events: list[TraceEvent], timeline: TxnTimeline, limit: int = 80
) -> str:
    """The transaction's events as an indented causal tree.

    Parents outside the transaction (e.g. the manager's submit) appear as
    roots; depth follows the ``parent`` chain within the shown set.
    """
    shown = timeline.events[:limit]
    by_seq = {e.seq: e for e in shown}
    depth: dict[int, int] = {}

    def depth_of(event: TraceEvent) -> int:
        d = depth.get(event.seq)
        if d is not None:
            return d
        parent = by_seq.get(event.parent)
        d = 0 if parent is None else depth_of(parent) + 1
        depth[event.seq] = d
        return d

    lines = [f"  {'  ' * depth_of(e)}{e.describe()}" for e in shown]
    if len(timeline.events) > limit:
        lines.append(f"  ... {len(timeline.events) - limit} more events")
    return "\n".join(lines)


def render_run_summary(run_dir: Path) -> str:
    """The ``repro trace list`` view: one line per transaction."""
    manifest = load_manifest(run_dir)
    lines = [
        f"run: {manifest['scenario']} seed={manifest['seed']} "
        f"sites={manifest['sites']} db={manifest['db_size']} "
        f"sim_time={manifest['sim_time_ms']:.1f}ms "
        f"events={manifest['events']}",
    ]
    if manifest.get("violations"):
        lines.append(f"VIOLATIONS: {len(manifest['violations'])}")
    lines.append("")
    lines.append(
        f"{'txn':>5} {'site':>4} {'outcome':<10} {'elapsed':>10}  dominant phase"
    )
    for row in manifest["transactions"]:
        phases: dict[str, float] = row["phases"]
        dominant = max(phases.items(), key=lambda kv: kv[1])[0] if phases else "-"
        outcome = (
            "commit"
            if row["committed"]
            else f"abort:{row['abort_reason']}"
            if row["committed"] is False
            else "?"
        )
        lines.append(
            f"{row['txn']:>5} {row['coordinator']:>4} {outcome:<10} "
            f"{row['coordinator_elapsed']:>9.2f}ms  {dominant}"
        )
    return "\n".join(lines)


def filter_events(
    events: Iterable[TraceEvent],
    *,
    txn: Optional[int] = None,
    kind: Optional[str] = None,
    site: Optional[int] = None,
) -> list[TraceEvent]:
    """Apply the ``trace cat`` filters."""
    out = []
    for event in events:
        if txn is not None and event.txn != txn:
            continue
        if kind is not None and event.kind.value != kind:
            continue
        if site is not None and event.site != site:
            continue
        out.append(event)
    return out


def diff_runs(dir_a: Path, dir_b: Path) -> list[str]:
    """Differences between two exported runs (empty = identical streams).

    Compares the event streams record-by-record — the strongest check two
    same-seed recordings can pass, and a readable first divergence when a
    determinism regression slips in.
    """
    events_a = load_events(dir_a)
    events_b = load_events(dir_b)
    problems: list[str] = []
    if len(events_a) != len(events_b):
        problems.append(
            f"event counts differ: {len(events_a)} vs {len(events_b)}"
        )
    for a, b in zip(events_a, events_b):
        if a.to_wire() != b.to_wire():
            problems.append(
                f"first divergence at seq {a.seq}:\n  a: {a.describe()}\n  b: {b.describe()}"
            )
            break
    return problems


def show_txn(run_dir: Path, txn_id: int, *, tree: bool = False) -> str:
    """Full ``trace show`` output for one transaction of an exported run."""
    events = load_events(run_dir)
    timelines = build_timelines(events)
    timeline = timelines.get(txn_id)
    if timeline is None:
        known = ", ".join(str(t) for t in sorted(timelines)) or "none"
        return (
            f"txn {txn_id}: no complete timeline in {run_dir} "
            f"(known transactions: {known})"
        )
    text = render_timeline(timeline)
    if tree:
        text += "\n\n  events:\n" + render_causal_tree(events, timeline)
    return text
