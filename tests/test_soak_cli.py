"""The soak command-line surface.

In-process ``main([...])`` invocations with a small run.
"""

import json

import pytest

from repro.cli import build_parser, main

SMALL = ["soak", "run", "--txns", "300", "--rate", "40"]


def test_parser_soak_run_flags():
    args = build_parser().parse_args(
        ["--seed", "9", "soak", "run", "--txns", "500", "--rate", "30",
         "--shape", "diurnal", "--peak", "60", "--workload", "storm",
         "--storm-every-ms", "2000", "--detection", "announced",
         "--fail-at-ms", "4000", "--recover-at-ms", "8000"]
    )
    assert args.seed == 9
    assert (args.txns, args.rate, args.shape, args.peak) == (500, 30.0, "diurnal", 60.0)
    assert (args.workload, args.storm_every_ms) == ("storm", 2000.0)
    assert args.detection == "announced"
    assert (args.fail_at_ms, args.recover_at_ms) == (4000.0, 8000.0)
    assert callable(args.fn)


def test_parser_rejects_unknown_shape_and_workload():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["soak", "run", "--shape", "sawtooth"])
    with pytest.raises(SystemExit):
        parser.parse_args(["soak", "run", "--workload", "hot-cold"])
    with pytest.raises(SystemExit):
        parser.parse_args(["soak"])  # subcommand required


def test_soak_run_prints_report(capsys):
    assert main(["--seed", "3", *SMALL]) == 0
    out = capsys.readouterr().out
    assert "soak: 300 txns" in out
    assert "availability per window" in out


def test_soak_run_writes_and_validates_roundtrip(tmp_path, capsys):
    report = tmp_path / "soak.json"
    assert main(["--seed", "3", *SMALL, "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["schema"] == "repro.soak/1"
    assert doc["totals"]["txns"] == 300
    capsys.readouterr()
    assert main(["soak", "validate", "--file", str(report)]) == 0
    assert "valid soak report" in capsys.readouterr().out


def test_soak_run_same_seed_same_bytes(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["--seed", "7", *SMALL, "--out", str(first)]) == 0
    assert main(["--seed", "7", *SMALL, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_soak_run_writes_svg(tmp_path):
    svg = tmp_path / "soak.svg"
    assert main(["--seed", "3", *SMALL, "--svg", str(svg)]) == 0
    content = svg.read_text()
    assert content.startswith("<svg")
    assert "availability" in content


def test_soak_run_no_fail_flag(tmp_path):
    report = tmp_path / "nofail.json"
    assert main(["--seed", "3", *SMALL, "--no-fail", "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["fault"] is None
    assert doc["config"]["fail_site"] is None


def test_soak_validate_flags_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "repro.soak/1", "totals": {}}))
    assert main(["soak", "validate", "--file", str(bad)]) == 1
    assert "INVALID" in capsys.readouterr().err



@pytest.mark.parametrize(
    "key, value, complaint",
    [
        ("availability", "high", "expected number, got str"),
        ("commits", "3", "expected number, got str"),
        ("t_ms", None, "expected number, got NoneType"),
        ("availability", 1.5, "1.5 outside [0.0, 1.0]"),
    ],
)
def test_soak_validate_names_a_mistyped_window_field(
    key, value, complaint, tmp_path, capsys
):
    """A window value of the wrong JSON type is one ``INVALID:`` line
    naming the path and exit 1 — the first two used to be a traceback out
    of the range check and the windows-sum rule."""
    report = tmp_path / "soak.json"
    assert main(["--seed", "3", *SMALL, "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    doc["windows"]["series"][0][key] = value
    report.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["soak", "validate", "--file", str(report)]) == 1
    assert capsys.readouterr().err == (
        f"INVALID: windows.series[0].{key}: {complaint}\n"
    )


def test_soak_validate_reports_an_unreadable_file(tmp_path, capsys):
    """A missing or non-JSON file is exit 2 with an ``error:`` line —
    distinguishable from exit 1, "read it, and the report is invalid"."""
    assert main(["soak", "validate", "--file", str(tmp_path / "absent.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["soak", "validate", "--file", str(garbled)]) == 2
    assert capsys.readouterr().err.startswith("error: input is not JSON")


@pytest.mark.parametrize(
    "flags",
    [
        ["--txns", "0"],
        ["--fail-site", "9"],
        ["--recover-at-ms", "1", "--fail-at-ms", "5"],
        ["--txns", "50", "--fail-at-ms", "-5"],
        ["--txns", "50", "--fail-at-ms", "-5", "--recover-at-ms", "-1"],
        # A fault time with no fault site would run, and report, a clean soak.
        ["--txns", "50", "--no-fail", "--recover-at-ms", "50"],
        ["--txns", "50", "--no-fail", "--fail-at-ms", "50"],
    ],
    ids=["txns", "fail-site", "recover-before-fail", "fail-in-the-past",
         "recover-in-the-past", "recover-without-fault-site",
         "fail-without-fault-site"],
)
def test_soak_run_rejects_a_bad_argument_with_exit_2(flags, capsys):
    assert main(["soak", "run", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
