"""The document kit: one declarative checker, one JSON writer.

Every JSON artifact this repo writes — ``repro.soak/1``,
``repro.recovery/1``, ``repro.check/1``, and the ``repro.obs.run/1``
manifest with its ``events.jsonl`` stream — is guarded by a *spec table*
kept beside its builder and checked by :func:`check`; every indented
document is written by :func:`write_json`.  A validator is ``check(doc,
SPEC)`` plus the cross-field rules a table cannot say (sums, orderings),
and those run only on a document whose types are already clean, so no
validator raises on any decoded JSON value.  docs/OBSERVABILITY.md,
"Documents", lists the five schemas.

A spec is plain data:

==================  ==================================================
``int`` ``str`` …   that JSON type (``float`` takes any number; ``bool``
                    is never a number)
``"literal"``       exactly that string (schema ids)
``frozenset``       one of these strings
:class:`Num`        a number inside a closed or half-open interval
``(spec, None)``    ``spec`` or null
``[spec]``          an array of ``spec``
``{key: spec}``     an object; ``"key?"`` marks an optional key, and an
                    :class:`Exact` table also rejects unnamed keys
==================  ==================================================

The rest of this module validates the three files of a run directory
(``run.json``, ``events.jsonl``, ``trace.json``) and is what
``repro trace validate`` runs.  Each problem is a human-readable string
that starts with the path it is about; an empty list means valid.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, NamedTuple

from repro.obs.events import KIND_BY_VALUE

RUN_SCHEMA_ID = "repro.obs.run/1"

_TYPE_NAMES = {
    int: "int", float: "number", str: "str", bool: "bool",
    dict: "object", list: "list",
}


class Exact(dict):
    """An object spec that also rejects keys it does not name."""


class Num(NamedTuple):
    """A number in ``[lo, hi]`` — ``(lo, hi]`` when ``lo_open``."""

    kind: type = float
    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = False


def _has_type(value: Any, kind: type) -> bool:
    if kind is float:
        kind = (int, float)
    elif kind is not int:
        return isinstance(value, kind)
    return isinstance(value, kind) and not isinstance(value, bool)


def check(doc: Any, spec: Any, where: str = "") -> list[str]:
    """Problems with ``doc`` under ``spec`` (empty = valid); never raises."""
    problems: list[str] = []
    _walk(doc, spec, where, problems)
    return problems


def _expected(kind: type, value: Any, where: str) -> str:
    return (
        f"{where or 'document'}: expected {_TYPE_NAMES[kind]}, "
        f"got {type(value).__name__}"
    )


def _walk(value: Any, spec: Any, where: str, problems: list[str]) -> None:
    if isinstance(spec, Num):
        if not _has_type(value, spec.kind):
            problems.append(_expected(spec.kind, value, where))
            return
        above = value > spec.lo if spec.lo_open else value >= spec.lo
        if not (above and value <= spec.hi):  # NaN compares false: rejected
            problems.append(
                f"{where}: {value} outside "
                f"{'(' if spec.lo_open else '['}{spec.lo}, {spec.hi}]"
            )
    elif isinstance(spec, tuple):
        if value is not None:
            _walk(value, spec[0], where, problems)
    elif isinstance(spec, str):
        if value != spec:
            problems.append(f"{where}: expected {spec!r}, got {value!r}")
    elif isinstance(spec, frozenset):
        if not isinstance(value, str) or value not in spec:
            problems.append(f"{where}: unknown value {value!r}")
    elif isinstance(spec, list):
        if not isinstance(value, list):
            problems.append(_expected(list, value, where))
            return
        for index, item in enumerate(value):
            _walk(item, spec[0], f"{where}[{index}]", problems)
    elif isinstance(spec, dict):
        if not isinstance(value, dict):
            problems.append(_expected(dict, value, where))
            return
        prefix = f"{where}." if where else ""
        named = set()
        for key, sub in spec.items():
            name = key.removesuffix("?")
            named.add(name)
            if name in value:
                _walk(value[name], sub, prefix + name, problems)
            elif name == key:
                problems.append(f"{prefix}{name}: missing")
        if isinstance(spec, Exact):
            problems += [
                f"{prefix}{key}: unexpected key"
                for key in sorted(value.keys() - named)
            ]
    elif not _has_type(value, spec):
        problems.append(_expected(spec, value, where))


def write_json(doc: Any, path: str | Path, *, sort_keys: bool = False) -> Path:
    """Write ``doc`` as indented JSON with a trailing newline.

    The one formatting every document shares: fixed indentation, no
    wall-clock, key order either the builder's insertion order or sorted —
    so the same document always serializes to the same bytes.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(doc, indent=2, sort_keys=sort_keys) + "\n", encoding="utf-8"
    )
    return path


# One events.jsonl record (TraceEvent.to_wire()).
EVENT_SPEC = Exact({
    "seq": Num(int, lo=0),
    "t": Num(float, lo=0),
    "kind": frozenset(KIND_BY_VALUE),
    "site": int,
    "txn": int,
    "parent": Num(int, lo=-1),
    "args": dict,
})

# The run.json manifest (export.export_run).
RUN_SPEC = {
    "schema": RUN_SCHEMA_ID,
    "scenario": str,
    "seed": int,
    "sites": int,
    "db_size": int,
    "sim_time_ms": float,
    "events": int,
    "dropped_events": int,
    "counters": dict,
    "transactions": list,
    "violations": list,
}


def validate_event(obj: Any, prev_seq: int = -1) -> list[str]:
    """Problems with one decoded events.jsonl record (empty = valid)."""
    problems = check(obj, EVENT_SPEC)
    if problems:
        return problems
    if obj["seq"] <= prev_seq:
        problems.append(
            f"seq not strictly increasing: {obj['seq']} after {prev_seq}"
        )
    if obj["parent"] >= obj["seq"]:
        problems.append(
            "parent must reference an earlier event: "
            f"{obj['parent']} >= {obj['seq']}"
        )
    return problems


def validate_events_jsonl(path: Path) -> list[str]:
    """Problems with an events.jsonl stream (empty = valid)."""
    problems: list[str] = []
    prev_seq = -1
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                problems.append(f"line {lineno}: blank line")
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                problems.append(f"line {lineno}: invalid JSON ({exc})")
                continue
            found = validate_event(obj, prev_seq)
            problems += [f"line {lineno}: {problem}" for problem in found]
            if not found:
                prev_seq = obj["seq"]
    return problems


def validate_run_manifest(obj: Any) -> list[str]:
    """Problems with a decoded run.json manifest (empty = valid)."""
    return check(obj, RUN_SPEC)


def validate_run_dir(run_dir: Path) -> list[str]:
    """Validate a whole exported run directory (empty = valid).

    Checks presence of all three artifacts, validates run.json and
    events.jsonl, and cross-checks the manifest's event count against
    the stream.
    """
    run_dir = Path(run_dir)
    problems: list[str] = []
    manifest_path = run_dir / "run.json"
    events_path = run_dir / "events.jsonl"
    chrome_path = run_dir / "trace.json"
    for path in (manifest_path, events_path, chrome_path):
        if not path.is_file():
            problems.append(f"missing artifact: {path.name}")
    if problems:
        return problems

    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        return [f"run.json: invalid JSON ({exc})"]
    manifest_problems = validate_run_manifest(manifest)
    problems += [f"run.json: {p}" for p in manifest_problems]

    event_problems = validate_events_jsonl(events_path)
    problems += [f"events.jsonl: {p}" for p in event_problems]
    if not event_problems and not manifest_problems:
        with events_path.open("r", encoding="utf-8") as fh:
            n_events = sum(1 for _ in fh)
        if manifest["events"] != n_events:
            problems.append(
                "run.json: events count mismatch "
                f"(manifest {manifest['events']}, stream {n_events})"
            )

    try:
        chrome = json.loads(chrome_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        problems.append(f"trace.json: invalid JSON ({exc})")
    else:
        problems += [
            f"trace.json: {p}" for p in check(chrome, {"traceEvents": list})
        ]
    return problems
