"""The document kit (``repro.obs.schema``) held against its own specs.

Five JSON schemas, one declarative checker.  For each schema this takes a
document the program itself wrote, asserts the validator passes it, then
— driven by the spec table, not by a hand-kept list — puts every wrong
JSON type under every key the spec names and deletes every key, and
asserts the validator names that path and does not raise.  A sixth schema
is covered by adding its row to ``SCHEMAS``.

The two ``ast`` guards keep it one kit: ``json.dumps(..., indent=...)``
has one call site in ``src/repro``, and no validator checks a type itself
— types are the checker's job, and cross-field rules run only on a
type-clean document.
"""

from __future__ import annotations

import ast
import copy
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.runner import CheckConfig
from repro.check.schedule import SCHEDULE_SPEC, load_schedule
from repro.cli import main
from repro.errors import CheckError
from repro.obs.schema import (
    EVENT_SPEC,
    RUN_SPEC,
    Exact,
    Num,
    check,
    validate_event,
    validate_run_dir,
    validate_run_manifest,
    write_json,
)
from repro.recovery.report import RECOVERY_SPEC, validate_recovery_report
from repro.soak import SoakConfig, build_report, run_soak
from repro.soak.report import SOAK_SPEC, validate_soak_report

REPO = Path(__file__).resolve().parents[1]

# One value of every JSON type.
SAMPLES = {
    "str": "x", "int": 7, "number": 1.5, "bool": True, "null": None,
    "list": [], "object": {},
}


def accepted(spec) -> set[str]:
    """The SAMPLES a spec takes on type alone.  A constant or an enum
    takes none of them: ``"x"`` is a string, but not the right one."""
    if isinstance(spec, Num):
        return accepted(spec.kind)
    if isinstance(spec, tuple):
        return accepted(spec[0]) | {"null"}
    if isinstance(spec, (str, frozenset)):
        return set()
    if isinstance(spec, list):
        return {"list"}
    if isinstance(spec, dict):
        return {"object"}
    return {
        int: {"int"}, float: {"int", "number"}, str: {"str"},
        bool: {"bool"}, dict: {"object"}, list: {"list"},
    }[spec]


def named_keys(spec, doc, path=""):
    """``(path, container, key, key's spec, required)`` for every key the
    spec names and ``doc`` holds, descending into nested objects and the
    first element of arrays."""
    if isinstance(spec, tuple):
        spec = spec[0]
    if isinstance(spec, list) and doc:
        yield from named_keys(spec[0], doc[0], f"{path}[0]")
    elif isinstance(spec, dict) and isinstance(doc, dict):
        for key, sub in spec.items():
            name = key.removesuffix("?")
            if name in doc:
                here = f"{path}.{name}" if path else name
                yield here, doc, name, sub, name == key
                yield from named_keys(sub, doc[name], here)


def schedule_problems(doc) -> list[str]:
    """``load_schedule`` as a validator: it reads a file and raises."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "schedule.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            load_schedule(path)
        except CheckError as exc:
            return [str(exc)]
    return []


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("trace") / "run"
    assert main(["trace", "record", "--exp", "smoke", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def documents(run_dir, tmp_path_factory) -> dict:
    """One valid, program-written document per schema."""
    check_dir = tmp_path_factory.mktemp("check")
    assert main(["check", "selftest", "--max-runs", "60",
                 "--out", str(check_dir)]) == 0
    events = [
        json.loads(line)
        for line in (run_dir / "events.jsonl").read_text().splitlines()
    ]
    return {
        "repro.recovery/1": json.loads(
            (REPO / "figures" / "recovery_time.json").read_text()
        ),
        "repro.soak/1": build_report(run_soak(SoakConfig(seed=3, txns=300))),
        "repro.obs.run/1": json.loads((run_dir / "run.json").read_text()),
        "events.jsonl record": next(e for e in events if e["parent"] >= 0),
        "repro.check/1": json.loads((check_dir / "schedule.json").read_text()),
    }


SCHEMAS = {
    "repro.recovery/1": (RECOVERY_SPEC, validate_recovery_report),
    "repro.soak/1": (SOAK_SPEC, validate_soak_report),
    "repro.obs.run/1": (RUN_SPEC, validate_run_manifest),
    "events.jsonl record": (EVENT_SPEC, validate_event),
    "repro.check/1": (SCHEDULE_SPEC, schedule_problems),
}


@pytest.mark.parametrize("schema", SCHEMAS)
def test_validator_names_every_wrong_type_and_missing_key(schema, documents):
    spec, validate = SCHEMAS[schema]
    valid = documents[schema]
    assert validate(valid) == []
    sites = list(named_keys(spec, valid))
    assert len(sites) >= len(spec)  # the walk reached every top-level key
    mutations = 0
    for path, _container, _key, sub, required in sites:
        wrong = [v for name, v in SAMPLES.items() if name not in accepted(sub)]
        for value in [*wrong, "<deleted>"]:
            doc = copy.deepcopy(valid)
            # Re-walk the copy to find the same container in it.
            container, key = next(
                (c, k) for p, c, k, _s, _r in named_keys(spec, doc) if p == path
            )
            if value == "<deleted>":
                del container[key]
            else:
                container[key] = value
            problems = validate(doc)  # must not raise
            if value != "<deleted>" or required:
                assert any(path in p for p in problems), (path, value, problems)
            mutations += 1
    assert mutations > 5 * len(sites)


def test_run_directory_validates_and_rejects_a_bool_seed(run_dir, tmp_path):
    assert validate_run_dir(run_dir) == []
    manifest = json.loads((run_dir / "run.json").read_text())
    for name in ("events.jsonl", "trace.json"):
        (tmp_path / name).write_bytes((run_dir / name).read_bytes())
    write_json({**manifest, "seed": True}, tmp_path / "run.json", sort_keys=True)
    assert validate_run_dir(tmp_path) == [
        "run.json: seed: expected int, got bool"
    ]


def test_check_spec_language():
    spec = {
        "id": "kit/1",
        "n": Num(int, lo=0),
        "ratio": (Num(float, 0.0, 1.0), None),
        "positive": Num(float, lo=0, lo_open=True),
        "kind": frozenset({"a", "b"}),
        "rows": [{"x": float, "tag?": str}],
        "strict": Exact({"only": bool}),
    }
    good = {
        "id": "kit/1", "n": 0, "ratio": None, "positive": 0.5, "kind": "a",
        "rows": [{"x": 1}, {"x": 2.5, "tag": "t"}], "strict": {"only": False},
        "unnamed keys": "are fine outside Exact",
    }
    assert check(good, spec) == []
    bad = {
        "id": "kit/2", "n": -1, "ratio": math.nan, "positive": 0, "kind": ["a"],
        "rows": [{"x": True}, 3], "strict": {"only": 1, "more": 2},
    }
    assert check(bad, spec, "doc") == [
        "doc.id: expected 'kit/1', got 'kit/2'",
        "doc.n: -1 outside [0, inf]",
        "doc.ratio: nan outside [0.0, 1.0]",
        "doc.positive: 0 outside (0, inf]",
        "doc.kind: unknown value ['a']",
        "doc.rows[0].x: expected number, got bool",
        "doc.rows[1]: expected object, got int",
        "doc.strict.only: expected bool, got int",
        "doc.strict.more: unexpected key",
    ]
    assert check([], spec) == ["document: expected object, got list"]
    assert check({}, {"a": int, "b?": int}) == ["a: missing"]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(
        st.sampled_from(
            ["schema", "config", "cells", "speedup", "pairs", "totals",
             "windows", "series", "seq", "parent", "decisions", "sites"]
        ),
        children,
        max_size=4,
    ),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(json_values)
def test_no_validator_raises_on_any_json_value(value):
    for validate in (
        validate_soak_report,
        validate_recovery_report,
        validate_run_manifest,
        validate_event,
    ):
        assert isinstance(validate(value), list)
    assert isinstance(check(value, SCHEDULE_SPEC), list)
    try:
        CheckConfig.from_dict(value)
    except CheckError:
        pass


# -- one kit, kept one ----------------------------------------------------------


def _src_trees():
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def test_indented_json_has_one_writer():
    sites = [
        str(path.relative_to(REPO))
        for path, tree in _src_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("dump", "dumps")
        and any(kw.arg == "indent" for kw in node.keywords)
    ]
    assert sites == ["src/repro/obs/schema.py"]


def test_no_validator_checks_a_type_itself():
    offenders = [
        f"{path.relative_to(REPO)}:{fn.name}"
        for path, tree in _src_trees()
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        and (fn.name.startswith("validate_") or fn.name == "load_schedule")
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
    ]
    assert offenders == []  # allowlist: empty
