"""The `repro check` CLI: explore / replay / shrink / stats / selftest."""

import json

import pytest

from repro.check import CheckConfig, load_schedule
from repro.cli import build_parser, main
from repro.errors import CheckError


def test_parser_accepts_check_subcommands():
    parser = build_parser()
    for sub in ("explore", "replay", "shrink", "stats", "selftest"):
        extra = (
            ["--file", "x.json"] if sub in ("replay", "shrink", "stats") else []
        )
        args = parser.parse_args(["check", sub, *extra])
        assert args.command == "check"
        assert callable(args.fn)


def test_explore_clean_config_exits_zero(capsys):
    assert main(["check", "explore", "--txns", "2", "--max-runs", "30"]) == 0
    out = capsys.readouterr().out
    assert "no violation found" in out
    assert "runs:" in out


def test_explore_mutated_finds_and_writes_schedule(tmp_path, capsys):
    schedule = tmp_path / "found.json"
    code = main(
        [
            "check",
            "explore",
            "--mutate",
            "--max-runs",
            "60",
            "--out",
            str(schedule),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0  # mutate mode: success IS finding the planted bug
    assert "counterexample" in out
    assert "faillock-coverage" in out
    assert schedule.exists()

    # stats renders the saved file.
    assert main(["check", "stats", "--file", str(schedule)]) == 0
    stats_out = capsys.readouterr().out
    assert "repro.check/1" in stats_out
    assert "faillock-coverage" in stats_out

    # shrink minimizes in place (to --out here) and replay confirms.
    small = tmp_path / "small.json"
    assert (
        main(
            ["check", "shrink", "--file", str(schedule), "--out", str(small)]
        )
        == 0
    )
    shrink_out = capsys.readouterr().out
    assert "shrunk" in shrink_out
    assert main(["check", "replay", "--file", str(small)]) == 0
    replay_out = capsys.readouterr().out
    assert "replay matches the recorded run" in replay_out


def test_replay_flags_divergence(tmp_path, capsys):
    schedule = tmp_path / "tampered.json"
    assert (
        main(
            [
                "check",
                "explore",
                "--mutate",
                "--max-runs",
                "60",
                "--out",
                str(schedule),
            ]
        )
        == 0
    )
    capsys.readouterr()
    doc = json.loads(schedule.read_text())
    doc["observed"]["events_fired"] += 1  # recorded run can't match now
    schedule.write_text(json.dumps(doc))
    assert main(["check", "replay", "--file", str(schedule)]) == 1
    captured = capsys.readouterr()
    assert "DIVERGED" in captured.err
    assert "events_fired" in captured.err


def test_replay_rejects_garbage_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["check", "replay", "--file", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_a_mistyped_config_field_is_an_error_line_and_exit_2(tmp_path, capsys):
    """``"sites": "three"`` used to reach the cluster builder and die in a
    TypeError traceback; a schedule file is outside input."""
    schedule = tmp_path / "schedule.json"
    assert main(["check", "explore", "--mutate", "--max-runs", "60",
                 "--out", str(schedule)]) == 0
    doc = json.loads(schedule.read_text())
    doc["config"]["sites"] = "three"
    schedule.write_text(json.dumps(doc))
    capsys.readouterr()
    for command in ("replay", "shrink", "stats"):
        assert main(["check", command, "--file", str(schedule)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "config.sites: expected int, got str" in err


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--max-branch", "0", "max_branch"),
        ("--max-branch", "1", "max_branch"),
        ("--min-up", "0", "min_up"),
    ],
)
def test_a_budget_below_its_floor_is_refused_not_raised(flag, value, field, capsys):
    """``--max-branch 0`` and ``1`` used to run the ``2`` search, and
    ``--min-up 0`` the ``1`` search: the hooks clamped them silently."""
    assert main(["check", "explore", "--max-runs", "5", flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert f"{field} must be >= " in err
    with pytest.raises(CheckError, match=field):
        CheckConfig(**{field: int(value)})


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--txns", "0"], "txns must be >= 1: 0"),
        (["--max-runs", "0"], "max_runs must be >= 1: 0"),
        (["--max-runs", "0", "--jobs", "2"], "max_runs must be >= 1: 0"),
    ],
    ids=["txns", "max-runs", "max-runs-parallel"],
)
def test_a_search_that_checks_nothing_is_refused(argv, message, capsys):
    """No transaction, or no run, used to print ``no violation found
    within budget`` and exit 0."""
    assert main(["check", "explore", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert "no violation found" not in captured.out


def test_the_library_refuses_a_search_that_checks_nothing():
    from repro.check.explorer import explore, explore_parallel

    with pytest.raises(CheckError, match="txns must be >= 1"):
        CheckConfig(txns=0)
    for search in (explore, explore_parallel):
        with pytest.raises(CheckError, match="max_runs must be >= 1"):
            search(CheckConfig(), max_runs=0)


def test_the_smallest_accepted_budgets_steer_their_own_search(capsys):
    """At the floors each budget is taken as given: the two-way search is
    not the default three-way one, and ``--min-up 3`` of three sites
    leaves no crash to choose."""
    printed = {}
    for argv in (
        ["--max-branch", "2"],
        ["--max-branch", "3"],
        ["--min-up", "1"],
        ["--min-up", "3"],
    ):
        assert main(["check", "explore", *argv]) == 0
        printed[tuple(argv)] = capsys.readouterr().out.splitlines()[0]
    assert printed[("--max-branch", "2")].startswith("runs: 7, states: 29,")
    assert printed[("--max-branch", "3")].startswith("runs: 12, states: 47,")
    assert printed[("--min-up", "1")] == printed[("--max-branch", "3")]
    assert printed[("--min-up", "3")].startswith("runs: 1, states: 4,")


def test_a_schedule_file_with_a_budget_below_its_floor_is_refused(tmp_path, capsys):
    schedule = tmp_path / "schedule.json"
    assert main(["check", "explore", "--mutate", "--max-runs", "60",
                 "--out", str(schedule)]) == 0
    doc = json.loads(schedule.read_text())
    doc["config"]["max_branch"] = 1
    schedule.write_text(json.dumps(doc))
    with pytest.raises(CheckError, match="max_branch must be >= 2"):
        load_schedule(schedule)
    capsys.readouterr()
    for command in ("replay", "shrink", "stats"):
        assert main(["check", command, "--file", str(schedule)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "max_branch must be >= 2" in err


def test_explore_rejects_unknown_choice_kind(capsys):
    try:
        main(["check", "explore", "--explore", "order,quantum"])
    except SystemExit as exc:
        assert exc.code == 2
    else:  # pragma: no cover - the parse must fail
        raise AssertionError("unknown choice kind accepted")
    assert "unknown choice kinds" in capsys.readouterr().err


def test_selftest_end_to_end(tmp_path, capsys):
    # The acceptance gate: re-introduce the PR-1 mutation, explore, find,
    # shrink, export via repro.obs, replay the export, all within a small
    # budget.  CI runs this same command as its check smoke job.
    out_dir = tmp_path / "selftest"
    assert main(["check", "selftest", "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "selftest passed" in out
    assert (out_dir / "schedule.json").exists()
    assert (out_dir / "run.json").exists()
    manifest = json.loads((out_dir / "run.json").read_text())
    assert manifest["violations"]
