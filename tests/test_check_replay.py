"""Counterexample replay: schedule files, cross-process byte stability.

The hard guarantee under test (satellite of the repro.check issue): a
shrunk schedule file replayed in two FRESH processes fires the same
events, flags the same violation, and exports byte-identical obs
artifacts.  Anything process-local leaking into a fingerprint, a
signature, or an export (builtin ``hash``, wall clocks, memory
addresses) breaks this test.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.check import (
    CheckConfig,
    build_schedule_doc,
    explore,
    load_schedule,
    run_schedule,
    save_schedule,
    shrink,
)
from repro.errors import CheckError

_REPO = Path(__file__).resolve().parent.parent


def _make_shrunk_schedule(path: Path) -> dict:
    """Explore the mutated system, shrink, save — the CI selftest flow."""
    config = CheckConfig(mutate=True)
    found = explore(config, max_runs=60)
    assert found.found
    small = shrink(config, found.counterexample)
    doc = build_schedule_doc(config, small.vector, small.run, note="test")
    save_schedule(path, doc)
    return doc


def _replay(schedule: Path, export_dir: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_REPO / "src")
    return subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "check",
            "replay",
            "--file",
            str(schedule),
            "--export",
            str(export_dir),
        ],
        cwd=_REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_shrunk_schedule_replays_identically_across_processes(tmp_path):
    schedule = tmp_path / "counterexample.json"
    doc = _make_shrunk_schedule(schedule)
    assert doc["observed"]["violations"], "schedule must record the violation"

    runs = []
    for name in ("first", "second"):
        export_dir = tmp_path / name
        proc = _replay(schedule, export_dir)
        assert proc.returncode == 0, proc.stderr
        assert "replay matches the recorded run" in proc.stdout
        assert "DIVERGED" not in proc.stderr
        runs.append((proc, export_dir))

    (first_proc, first_dir), (second_proc, second_dir) = runs
    # Same console story (minus the export-path line, which names the dir)...
    assert first_proc.stdout.split("\n", 1)[1] == (
        second_proc.stdout.split("\n", 1)[1]
    )
    # ...and byte-identical artifacts, file for file.
    names = sorted(p.name for p in first_dir.iterdir())
    assert names == ["events.jsonl", "run.json", "schedule.json", "trace.json"]
    assert names == sorted(p.name for p in second_dir.iterdir())
    for name in names:
        assert (first_dir / name).read_bytes() == (
            second_dir / name
        ).read_bytes(), f"{name} differs between fresh processes"

    # The export embeds the violation and the recorded schedule round-trips.
    manifest = json.loads((first_dir / "run.json").read_text())
    assert any(
        v["invariant"] == "faillock-coverage" for v in manifest["violations"]
    )
    exported = load_schedule(first_dir / "schedule.json")
    assert exported["decisions"] == doc["decisions"]

    # The in-process view agrees with what the subprocesses reported.
    replayed = run_schedule(
        CheckConfig.from_dict(doc["config"]), doc["decisions"]
    )
    assert f"{replayed.events_fired} events" in first_proc.stdout


def test_schedule_file_round_trips_and_is_byte_deterministic(tmp_path):
    config = CheckConfig(mutate=True, txns=4)
    result = run_schedule(config, [1])
    doc = build_schedule_doc(config, [1], result, note="round trip")

    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save_schedule(first, doc)
    save_schedule(second, build_schedule_doc(config, [1], result, note="round trip"))
    assert first.read_bytes() == second.read_bytes()

    loaded = load_schedule(first)
    assert loaded["decisions"] == [1]
    assert CheckConfig.from_dict(loaded["config"]) == config
    assert loaded["observed"]["events_fired"] == result.events_fired
    assert loaded["observed"]["violations"][0]["invariant"] == (
        "faillock-coverage"
    )


def test_load_schedule_rejects_malformed_files(tmp_path):
    bad_schema = tmp_path / "bad_schema.json"
    bad_schema.write_text(
        json.dumps({"schema": "repro.check/999", "config": {}, "decisions": []})
    )
    bad_decisions = tmp_path / "bad_decisions.json"
    bad_decisions.write_text(
        json.dumps(
            {
                "schema": "repro.check/1",
                "config": {},
                "decisions": ["one", "two"],
            }
        )
    )
    not_json = tmp_path / "not_json.json"
    not_json.write_text("{nope")
    for path in (bad_schema, bad_decisions, not_json, tmp_path / "absent.json"):
        with pytest.raises(CheckError):
            load_schedule(path)
