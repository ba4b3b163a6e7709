"""Run-artifact exporters and loaders.

``export_run`` writes one run directory:

* ``run.json`` — manifest: scenario identity, counters by event kind,
  per-transaction summaries (phase totals included), and any audited
  invariant violations.  Schema id :data:`~repro.obs.schema.RUN_SCHEMA_ID`.
* ``events.jsonl`` — the full event stream, one wire dict per line.
* ``trace.json`` — Chrome ``trace_event`` format: per-transaction phase
  slices plus instant markers for site failures/recoveries and chaos
  violations.  Open it in Perfetto (https://ui.perfetto.dev) or
  chrome://tracing; rows are ``site N`` processes with one track per
  transaction.

All JSON is written with sorted keys and no wall-clock data, so two runs
of the same (scenario, seed) export **byte-identical** artifacts — the
property ``repro trace diff`` and the determinism tests rely on.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Optional

from repro.obs.events import EventKind, TraceEvent
from repro.obs.schema import RUN_SCHEMA_ID, write_json
from repro.obs.sink import TraceSink
from repro.obs.timeline import build_timelines, derive_txn_summaries

_JSON_KW = {"sort_keys": True, "separators": (",", ":")}

# Event kinds rendered as instant markers in the Chrome trace.
_INSTANT_KINDS = {
    EventKind.SITE_FAIL: "site fail",
    EventKind.SITE_RECOVER: "site recover",
    EventKind.SITE_RECOVER_DONE: "site recover done",
    EventKind.VIOLATION: "VIOLATION",
}


def _dumps(obj: Any) -> str:
    return json.dumps(obj, **_JSON_KW)


def export_run(
    run_dir: Path,
    sink: TraceSink,
    *,
    scenario: str,
    seed: int,
    sites: int,
    db_size: int,
    sim_time_ms: float,
    violations: Optional[Iterable[dict[str, Any]]] = None,
) -> dict[str, Any]:
    """Write run.json + events.jsonl + trace.json; returns the manifest."""
    run_dir = Path(run_dir)
    events = list(sink)

    counters: dict[str, int] = {}
    for event in events:
        counters[event.kind.value] = counters.get(event.kind.value, 0) + 1

    manifest: dict[str, Any] = {
        "schema": RUN_SCHEMA_ID,
        "scenario": scenario,
        "seed": seed,
        "sites": sites,
        "db_size": db_size,
        "sim_time_ms": sim_time_ms,
        "events": len(events),
        "dropped_events": sink.dropped_events,
        "counters": counters,
        "transactions": derive_txn_summaries(events),
        "violations": list(violations or []),
    }

    write_json(manifest, run_dir / "run.json", sort_keys=True)
    with (run_dir / "events.jsonl").open("w", encoding="utf-8") as fh:
        for event in events:
            fh.write(_dumps(event.to_wire()))
            fh.write("\n")
    (run_dir / "trace.json").write_text(
        _dumps(to_chrome_trace(events, sites=sites)) + "\n",
        encoding="utf-8",
    )
    return manifest


def to_chrome_trace(
    events: list[TraceEvent], *, sites: int
) -> dict[str, Any]:
    """Chrome ``trace_event`` document for a captured event stream.

    Layout: each site is a process (pid = site id), each transaction a
    thread (tid = txn id) on its coordinator's process.  Phase spans
    become complete ("X") slices; site failures/recoveries and invariant
    violations become instant ("i") markers.  ``ts`` is microseconds, so
    simulated milliseconds are scaled by 1000.
    """
    trace_events: list[dict[str, Any]] = []
    for site in range(sites):
        trace_events.append(
            {
                "ph": "M",
                "pid": site,
                "tid": 0,
                "name": "process_name",
                "args": {"name": f"site {site}"},
            }
        )
    for txn_id, timeline in sorted(build_timelines(events).items()):
        for span in timeline.phases:
            trace_events.append(
                {
                    "ph": "X",
                    "pid": timeline.coordinator,
                    "tid": txn_id,
                    "name": span.phase,
                    "cat": "txn",
                    "ts": span.start * 1000.0,
                    "dur": span.duration * 1000.0,
                    "args": {"txn": txn_id},
                }
            )
    for event in events:
        label = _INSTANT_KINDS.get(event.kind)
        if label is None:
            continue
        trace_events.append(
            {
                "ph": "i",
                "pid": event.site if event.site >= 0 else 0,
                "tid": 0,
                "name": label,
                "cat": "system",
                "ts": event.t * 1000.0,
                "s": "g",
                "args": {str(k): v for k, v in sorted(event.args.items())},
            }
        )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def load_events(run_dir: Path) -> list[TraceEvent]:
    """Rebuild the event stream from an exported run directory."""
    events: list[TraceEvent] = []
    with (Path(run_dir) / "events.jsonl").open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(TraceEvent.from_wire(json.loads(line)))
    return events


def load_manifest(run_dir: Path) -> dict[str, Any]:
    """Load an exported run's run.json manifest."""
    return json.loads(
        (Path(run_dir) / "run.json").read_text(encoding="utf-8")
    )
