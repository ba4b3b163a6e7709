"""The ``repro trace`` subcommand group, end to end."""

import json

import pytest

from repro.chaos import PRESETS
from repro.cli import build_parser, main
from repro.obs import validate_run_dir


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One recorded smoke run, shared by the read-only commands."""
    out = tmp_path_factory.mktemp("cli") / "run"
    assert main(["trace", "record", "--exp", "smoke", "--out", str(out)]) == 0
    return out


def test_parser_wires_trace_subcommands() -> None:
    parser = build_parser()
    for argv in (
        ["trace", "record", "--exp", "1", "--out", "x"],
        ["trace", "show", "5", "--dir", "x", "--tree"],
        ["trace", "list", "--dir", "x"],
        ["trace", "cat", "--dir", "x", "--kind", "msg.drop", "--limit", "3"],
        ["trace", "diff", "a", "b"],
        ["trace", "validate", "--dir", "x"],
    ):
        args = parser.parse_args(argv)
        assert callable(args.fn)


def test_record_writes_all_artifacts(recorded, capsys) -> None:
    for name in ("run.json", "events.jsonl", "trace.json"):
        assert (recorded / name).is_file()


def test_record_rejects_unknown_preset(capsys) -> None:
    with pytest.raises(SystemExit):
        main(["trace", "record", "--exp", "99", "--out", "nowhere"])


def test_validate_accepts_recorded_run(recorded, capsys) -> None:
    assert main(["trace", "validate", "--dir", str(recorded)]) == 0
    assert "schema-valid" in capsys.readouterr().out


def test_validate_fails_on_schema_violation(recorded, tmp_path, capsys) -> None:
    broken = tmp_path / "broken"
    broken.mkdir()
    for name in ("run.json", "events.jsonl", "trace.json"):
        (broken / name).write_bytes((recorded / name).read_bytes())
    lines = (broken / "events.jsonl").read_text().splitlines()
    bad = json.loads(lines[0])
    bad["kind"] = "not.a.kind"
    lines[0] = json.dumps(bad, sort_keys=True, separators=(",", ":"))
    (broken / "events.jsonl").write_text("\n".join(lines) + "\n")
    assert main(["trace", "validate", "--dir", str(broken)]) == 1
    assert "SCHEMA:" in capsys.readouterr().out


def test_list_prints_every_transaction(recorded, capsys) -> None:
    assert main(["trace", "list", "--dir", str(recorded)]) == 0
    out = capsys.readouterr().out
    manifest = json.loads((recorded / "run.json").read_text())
    assert f"seed={manifest['seed']}" in out
    for row in manifest["transactions"]:
        assert f"\n{row['txn']:>5} " in out


def test_show_prints_phase_attributed_timeline(recorded, capsys) -> None:
    manifest = json.loads((recorded / "run.json").read_text())
    txn = manifest["transactions"][0]["txn"]
    assert main(["trace", "show", str(txn), "--dir", str(recorded)]) == 0
    out = capsys.readouterr().out
    assert f"txn {txn}" in out
    assert "elapsed" in out and "segments:" in out


def test_show_tree_prints_causal_events(recorded, capsys) -> None:
    manifest = json.loads((recorded / "run.json").read_text())
    txn = manifest["transactions"][0]["txn"]
    assert main(
        ["trace", "show", str(txn), "--dir", str(recorded), "--tree"]
    ) == 0
    out = capsys.readouterr().out
    assert "events:" in out
    assert "txn.begin" in out


def test_show_unknown_txn_lists_known_ones(recorded, capsys) -> None:
    assert main(["trace", "show", "424242", "--dir", str(recorded)]) == 0
    out = capsys.readouterr().out
    assert "no complete timeline" in out


def test_cat_filters_by_kind_and_respects_limit(recorded, capsys) -> None:
    assert main(
        [
            "trace", "cat", "--dir", str(recorded),
            "--kind", "txn.begin", "--limit", "3",
        ]
    ) == 0
    out = capsys.readouterr().out.strip().splitlines()
    body = [line for line in out if not line.startswith("...")]
    assert 0 < len(body) <= 3
    assert all("txn.begin" in line for line in body)


@pytest.mark.parametrize(
    "flags, complaint",
    [
        (["--limit", "-1"], "error: --limit must be >= 0: -1\n"),
        (["--kind", "msg.snd"], "error: unknown event kind 'msg.snd'; one of: msg.send, "),
    ],
    ids=["negative-limit", "unknown-kind"],
)
def test_cat_refuses_a_filter_that_would_mislead(recorded, flags, complaint, capsys):
    assert main(["trace", "cat", "--dir", str(recorded), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(complaint) and len(captured.err.splitlines()) == 1


def test_diff_identical_and_divergent_runs(recorded, tmp_path, capsys) -> None:
    twin = tmp_path / "twin"
    assert main(["trace", "record", "--exp", "smoke", "--out", str(twin)]) == 0
    assert main(["trace", "diff", str(recorded), str(twin)]) == 0
    assert "identical" in capsys.readouterr().out

    other = tmp_path / "other"
    assert main(
        ["--seed", "43", "trace", "record", "--exp", "smoke", "--out", str(other)]
    ) == 0
    assert main(["trace", "diff", str(recorded), str(other)]) == 1
    out = capsys.readouterr().out
    assert "divergence" in out or "counts differ" in out


def test_chaos_record_via_cli(tmp_path, capsys) -> None:
    out = tmp_path / "chaos"
    assert main(
        [
            "trace", "record", "--chaos-seed", "3", "--txns", "15",
            "--mode", "lossy-core", "--out", str(out),
        ]
    ) == 0
    assert "chaos-lossy-core" in capsys.readouterr().out
    assert main(["trace", "validate", "--dir", str(out)]) == 0


@pytest.mark.parametrize("mode", sorted(PRESETS))
def test_chaos_record_takes_every_fault_plan_preset(mode, tmp_path, capsys) -> None:
    """``trace record --mode`` names its fault plan as ``repro chaos
    --mode`` does, and every preset records a valid run directory."""
    out = tmp_path / mode
    assert main(
        [
            "trace", "record", "--chaos-seed", "3", "--txns", "20",
            "--mode", mode, "--out", str(out),
        ]
    ) == 0
    assert f"recorded chaos-{mode} " in capsys.readouterr().out
    assert validate_run_dir(out) == []
