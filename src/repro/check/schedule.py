"""Schedule files: replayable, shrinkable, byte-deterministic.

A schedule file is the checker's exchange format — ``explore --out``
writes one, ``replay`` / ``shrink`` / ``stats`` read one.  It carries
everything a fresh process needs to reproduce the run exactly:

* the :class:`~repro.check.runner.CheckConfig` (system shape + budgets),
* the decision vector,
* what the recording process observed (violation, events fired, commits)
  so a replay can *verify* rather than trust.

Serialization is :func:`repro.obs.schema.write_json` with sorted keys
over plain data with no wall-clock anywhere, so the same schedule saved
twice — by any process — is byte-identical (pinned by
``tests/test_check_replay.py``).

:func:`export_counterexample` additionally re-runs the schedule with an
enabled :class:`~repro.obs.sink.TraceSink` and ships the full
``repro.obs`` run artifact (manifest + events.jsonl + causal
trace.json) next to the schedule file, so a shrunk counterexample
arrives with its causal timeline attached.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.check.runner import (
    CONFIG_SPEC,
    CheckConfig,
    CheckRunResult,
    run_schedule,
)
from repro.errors import CheckError
from repro.obs import schema

__all__ = [
    "SCHEDULE_SCHEMA",
    "build_schedule_doc",
    "save_schedule",
    "load_schedule",
    "export_counterexample",
]

SCHEDULE_SCHEMA = "repro.check/1"

SCHEDULE_SPEC = {
    "schema": SCHEDULE_SCHEMA,
    "config": CONFIG_SPEC,
    "decisions": [int],
    "note?": str,
    "observed?": {
        "events_fired": int,
        "commits": int,
        "aborts": int,
        "stalled": bool,
        "sim_time_ms": float,
        "choice_points": int,
        "violations": [{"invariant": str, "time": float, "description": str}],
    },
}


def build_schedule_doc(
    config: CheckConfig,
    vector: Sequence[int],
    result: Optional[CheckRunResult] = None,
    note: str = "",
) -> dict[str, Any]:
    """The plain-data schedule document for (config, vector)."""
    doc: dict[str, Any] = {
        "schema": SCHEDULE_SCHEMA,
        "config": config.to_dict(),
        "decisions": list(vector),
        "note": note,
    }
    if result is not None:
        doc["observed"] = {
            "events_fired": result.events_fired,
            "commits": result.commits,
            "aborts": result.aborts,
            "stalled": result.stalled,
            "sim_time_ms": result.sim_time_ms,
            "choice_points": len(result.decisions),
            "violations": [asdict(v) for v in result.violations],
        }
    return doc


def save_schedule(path: Path, doc: dict[str, Any]) -> None:
    """Write a schedule document, byte-deterministically."""
    schema.write_json(doc, path, sort_keys=True)


def load_schedule(path: Path) -> dict[str, Any]:
    """Read and structurally validate a schedule document."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckError(f"cannot read schedule file {path}: {exc}") from exc
    problems = schema.check(doc, SCHEDULE_SPEC)
    if problems:
        raise CheckError(
            f"{path}: invalid {SCHEDULE_SCHEMA} schedule file: "
            + "; ".join(problems)
        )
    try:
        CheckConfig.from_dict(doc["config"])
    except CheckError as exc:
        raise CheckError(f"{path}: {exc}") from None
    return doc


def export_counterexample(
    out_dir: Path,
    config: CheckConfig,
    vector: Sequence[int],
    note: str = "",
) -> tuple[dict[str, Any], CheckRunResult]:
    """Re-run (config, vector) traced; write schedule + obs artifacts.

    Produces ``schedule.json`` plus the standard ``repro.obs`` run
    artifact set (``run.json``, ``events.jsonl``, ``trace.json``) in
    ``out_dir``.  Returns (manifest, run result).  Tracing is pure
    observation, so the traced run makes exactly the decisions the
    untraced one did.
    """
    from repro.obs.export import export_run
    from repro.obs.sink import TraceSink

    out_dir = Path(out_dir)
    sink = TraceSink(enabled=True)
    result = run_schedule(config, vector, trace=sink)
    violations = [
        {str(k): v for k, v in asdict(record).items()}
        for record in result.violations
    ]
    manifest = export_run(
        out_dir,
        sink,
        scenario="check",
        seed=config.seed,
        sites=config.sites,
        db_size=config.db_size,
        sim_time_ms=result.sim_time_ms,
        violations=violations,
    )
    save_schedule(
        out_dir / "schedule.json",
        build_schedule_doc(config, vector, result, note=note),
    )
    return manifest, result
