"""Run-artifact export: determinism, schema validity, Chrome trace shape."""

import json

import pytest

from repro.cli import main
from repro.experiments import exp1, exp2, exp3
from repro.obs import (
    load_events,
    load_manifest,
    record_chaos,
    record_experiment,
    validate_events_jsonl,
    validate_run_dir,
)
from repro.obs.record import _scenario_for
from repro.obs.schema import RUN_SCHEMA_ID, validate_event
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig

ARTIFACTS = ("run.json", "events.jsonl", "trace.json")


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("obs") / "run"
    manifest = record_experiment("smoke", seed=42, out_dir=out)
    return out, manifest


# -- determinism --------------------------------------------------------------


def test_same_seed_exports_are_byte_identical(tmp_path, smoke_run) -> None:
    first, _ = smoke_run
    second = tmp_path / "again"
    record_experiment("smoke", seed=42, out_dir=second)
    for name in ARTIFACTS:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_different_seed_diverges(tmp_path, smoke_run) -> None:
    first, _ = smoke_run
    other = tmp_path / "other"
    record_experiment("smoke", seed=43, out_dir=other)
    assert (first / "events.jsonl").read_bytes() != (
        other / "events.jsonl"
    ).read_bytes()


@pytest.mark.parametrize("exp", ["1", "2", "3"])
def test_experiment_presets_trace_their_runners_runs(exp, tmp_path) -> None:
    """``trace record --exp N`` records the experiment's own run: a valid
    run directory with as many transactions as its runner runs."""
    runners = {
        "1": lambda: exp1.run_copier_scenario(SystemConfig(seed=42), exp1.WARM_TXNS),
        "2": lambda: exp2.run_figure1(seed=42).metrics,
        "3": lambda: exp3.run_scenario2(seed=42).metrics,
    }
    out = tmp_path / "run"
    assert main(["trace", "record", "--exp", exp, "--out", str(out)]) == 0
    assert validate_run_dir(out) == []
    manifest = load_manifest(out)
    assert len(manifest["transactions"]) == len(runners[exp]().txns)


# -- zero interference --------------------------------------------------------


def _fingerprint(trace_on: bool):
    config, scenario = _scenario_for("smoke", 42)
    cluster = Cluster(config)
    cluster.obs.enabled = trace_on
    metrics = cluster.run(scenario)
    return (
        cluster.now,
        metrics.counters.as_dict(),
        [
            (r.txn_id, r.committed, r.finished_at, r.coordinator_elapsed)
            for r in metrics.txns
        ],
        len(cluster.obs),
    )


def test_tracing_does_not_perturb_the_simulation() -> None:
    """Identical sim-time, counters, and per-txn timings with tracing on
    and off — tracing is pure observation."""
    on = _fingerprint(trace_on=True)
    off = _fingerprint(trace_on=False)
    assert on[:3] == off[:3]
    assert on[3] > 0        # traced run captured events
    assert off[3] == 0      # disabled sink captured none


# -- schema -------------------------------------------------------------------


def test_run_dir_is_schema_valid(smoke_run) -> None:
    out, manifest = smoke_run
    assert manifest["schema"] == RUN_SCHEMA_ID
    assert validate_run_dir(out) == []
    assert validate_events_jsonl(out / "events.jsonl") == []


def test_validate_event_catches_violations() -> None:
    good = {
        "seq": 1,
        "t": 0.5,
        "kind": "msg.send",
        "site": 0,
        "txn": -1,
        "parent": 0,
        "args": {},
    }
    assert validate_event(dict(good), prev_seq=0) == []
    assert validate_event({**good, "kind": "bogus.kind"}, prev_seq=0)
    assert validate_event({**good, "parent": 7}, prev_seq=0)  # parent >= seq
    assert validate_event(dict(good), prev_seq=1)  # seq not increasing
    missing = dict(good)
    del missing["txn"]
    assert validate_event(missing, prev_seq=0)


def test_validate_run_dir_flags_tampered_stream(smoke_run, tmp_path) -> None:
    out, _ = smoke_run
    broken = tmp_path / "broken"
    broken.mkdir()
    for name in ARTIFACTS:
        (broken / name).write_bytes((out / name).read_bytes())
    lines = (broken / "events.jsonl").read_text().splitlines()
    evil = json.loads(lines[3])
    evil["parent"] = evil["seq"] + 10  # causality must point backwards
    lines[3] = json.dumps(evil, sort_keys=True, separators=(",", ":"))
    (broken / "events.jsonl").write_text("\n".join(lines) + "\n")
    assert validate_run_dir(broken)


# -- manifest & stream content ------------------------------------------------


def test_manifest_matches_stream(smoke_run) -> None:
    out, manifest = smoke_run
    events = load_events(out)
    assert manifest["events"] == len(events)
    assert load_manifest(out) == manifest
    seqs = [e.seq for e in events]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)


def test_parents_always_precede_children(smoke_run) -> None:
    out, _ = smoke_run
    seen = set()
    for event in load_events(out):
        assert event.parent == -1 or event.parent in seen
        seen.add(event.seq)


# -- chrome trace -------------------------------------------------------------


def test_chrome_trace_structure(smoke_run) -> None:
    out, manifest = smoke_run
    trace = json.loads((out / "trace.json").read_text())
    events = trace["traceEvents"]
    phases = {e["ph"] for e in events}
    assert phases >= {"M", "X", "i"}  # metadata, slices, instants
    slices = [e for e in events if e["ph"] == "X"]
    assert len(slices) >= len(manifest["transactions"])
    for entry in slices:
        assert entry["dur"] >= 0
        assert entry["ts"] >= 0
    instants = {e["name"] for e in events if e["ph"] == "i"}
    assert "site fail" in instants and "site recover" in instants


# -- chaos recording ----------------------------------------------------------


def test_chaos_recording_exports_and_validates(tmp_path) -> None:
    out = tmp_path / "chaos"
    manifest = record_chaos(3, out_dir=out, txns=20, mode="lossy-core")
    assert manifest["scenario"] == "chaos-lossy-core"
    assert validate_run_dir(out) == []
    kinds = {e.kind.value for e in load_events(out)}
    assert "msg.send" in kinds and "txn.end" in kinds
