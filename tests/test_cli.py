"""The command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main


def test_parser_rejects_missing_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_accepts_all_commands():
    parser = build_parser()
    for command in ("exp1", "fig1", "fig2", "fig3", "ablations", "report"):
        args = parser.parse_args([command])
        assert args.command == command
        assert callable(args.fn)


def test_seed_flag():
    args = build_parser().parse_args(["--seed", "9", "fig1"])
    assert args.seed == 9


def test_concurrent_flags():
    args = build_parser().parse_args(
        ["concurrent", "--txns", "50", "--rates", "1.5", "3.0"]
    )
    assert args.txns == 50
    assert args.rates == [1.5, 3.0]


def test_fig2_runs(capsys):
    assert main(["fig2"]) == 0
    out = capsys.readouterr().out
    assert "Figure 2" in out and "Figure 3" not in out
    assert "| aborted transactions" in out and "scenario 1 paper" in out


def test_fig3_runs(capsys):
    assert main(["fig3"]) == 0
    out = capsys.readouterr().out
    assert "Figure 3" in out and "Figure 2" not in out
    assert "scenario 2 paper" in out


def test_fig1_runs_with_seed(capsys):
    assert main(["--seed", "7", "fig1"]) == 0
    out = capsys.readouterr().out
    assert "Figure 1" in out
    assert "transactions to full recovery" in out


def _report_section(heading: str) -> str:
    """The committed EXPERIMENTS.md from ``heading`` up to the next
    heading of the same or a higher level."""
    text = (Path(__file__).resolve().parents[1] / "EXPERIMENTS.md").read_text()
    level = heading.split(" ", 1)[0]
    start = text.index(heading)
    ends = [
        text.find(f"\n{'#' * n} ", start + 1)
        for n in range(2, len(level) + 1)
    ]
    end = min([e for e in ends if e != -1], default=len(text))
    return text[start:end].strip("\n")


@pytest.mark.parametrize(
    "argv, heading",
    [
        (["fig1"], "## Experiment 2"),
        (["ablations"], "## Ablations"),
        (["concurrent"], "### A8"),
    ],
    ids=["fig1", "ablations", "concurrent"],
)
def test_a_command_prints_its_section_of_the_report(argv, heading, capsys):
    """One statement of each table: what ``repro <cmd>`` prints at the
    default seed is, byte for byte, its section of EXPERIMENTS.md — all
    eleven ablations, under the report's own headers."""
    assert main(argv) == 0
    assert capsys.readouterr().out == _report_section(heading) + "\n"


def test_exp1_keeps_its_seed_flag(capsys):
    """EXPERIMENTS.md reports Experiment 1 at the runners' own seeds
    (11 / 13 / 17); on the command line ``--seed`` still reaches all three
    runners, as it always has."""
    from repro.experiments.report import exp1_section

    assert exp1_section() == _report_section("## Experiment 1")
    assert main(["--seed", "11", "exp1"]) == 0
    out = capsys.readouterr().out
    fl_table = _report_section("### §2.2.1")
    assert fl_table in out and out != exp1_section() + "\n"


def test_report_writes_file(tmp_path, monkeypatch):
    """The report and its three figures are pure functions of the seed:
    a fresh run equals the committed EXPERIMENTS.md and figure SVGs byte
    for byte, and the SVGs land beside ``--output`` — run from a scratch
    working directory, the command must leave nothing there."""
    repo = Path(__file__).resolve().parents[1]
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    out_file = out_dir / "EXP.md"
    assert main(["report", "--output", str(out_file)]) == 0
    assert out_file.read_bytes() == (repo / "EXPERIMENTS.md").read_bytes()
    for name in ("figure1.svg", "figure2.svg", "figure3.svg"):
        written = out_dir / "figures" / name
        assert written.read_bytes() == (repo / "figures" / name).read_bytes()
    assert list(cwd.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["trace", "show", "1", "--dir", "{missing}"],
        ["trace", "list", "--dir", "{missing}"],
        ["trace", "cat", "--dir", "{missing}"],
        ["trace", "diff", "{missing}", "{missing}"],
    ],
    ids=["show", "list", "cat", "diff"],
)
def test_trace_readers_report_a_missing_run_directory(argv, tmp_path, capsys):
    """No run directory is exit 2 and one ``error:`` line — not a
    traceback, and not the exit 1 that means "the runs differ"."""
    missing = str(tmp_path / "no-such-run")
    assert main([arg.format(missing=missing) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no-such-run" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["recovery", "--donors", "0"],
        ["concurrent", "--rates", "0"],
        ["check", "explore", "--sites", "0"],
        ["trace", "record", "--out", "/proc/nope/x"],
    ],
    ids=["recovery", "concurrent", "check-explore", "trace-record"],
)
def test_a_bad_argument_is_an_error_line_and_exit_2(argv, capsys):
    """Decided once, in ``main``: no traceback, and not the exit 1 that
    means "violations found"."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["chaos", "--seeds", "2"],
        ["check", "explore"],
        ["report", "--output", "{tmp}/EXPERIMENTS.md"],
    ],
    ids=["chaos", "check-explore", "report"],
)
def test_a_jobs_count_below_one_is_refused(argv, tmp_path, capsys):
    """``--jobs 0`` used to run serially without a word."""
    assert main([*(arg.format(tmp=tmp_path) for arg in argv), "--jobs", "0"]) == 2
    assert capsys.readouterr().err == "error: --jobs must be >= 1: 0\n"
    assert not any(tmp_path.iterdir())
