"""Command-line interface: ``python -m repro <command>``.

The first six commands print their section of EXPERIMENTS.md — the same
``repro.experiments.report`` functions ``report`` joins — for ``--seed``:

===============  =======================================================
``exp1``         §2 overhead tables (fail-locks, control txns, copiers)
``fig1``         §3 availability table and Figure 1
``fig2``         §4.2.1 scenario 1 table and Figure 2
``fig3``         §4.2.2 scenario 2 table and Figure 3
``ablations``    A1-A6 and A8-A12 design-choice studies
``concurrent``   the "complete RAID" open-loop sweep (A8)
``chaos``        randomized fault injection + invariant audit seed sweep
``trace``        record/inspect structured run traces (repro.obs)
``check``        deterministic schedule-space exploration (repro.check)
``soak``         heavy-traffic soak through a fail/recover cycle
``recovery``     recovery-time family: policy x donors x stale size
``report``       regenerate EXPERIMENTS.md (every section, joined)
===============  =======================================================

``chaos``, ``recovery``, ``report`` and ``check`` use every CPU with
identical output: the sweeps fan their independent runs out, and ``check
explore`` runs its next frontier prefixes ahead on the workers.  ``chaos
--jobs N``, ``check explore --jobs N`` and ``report --jobs N`` set the
worker count, and ``--jobs 1`` runs in-process (see
docs/PERFORMANCE.md).  The global ``--profile`` flag wraps any command in
:mod:`cProfile` and prints the top functions by cumulative time; since
cProfile sees only this process, a sweep left at its default runs
in-process under it.

``trace`` has its own subcommands: ``record`` (trace an experiment preset
or a chaos seed into a run directory), ``show`` (phase-attributed timeline
of one transaction), ``list`` (per-transaction run summary), ``cat``
(filtered raw events), ``diff`` (compare two exported runs), and
``validate`` (schema-check a run directory).  See docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import CheckError, ConfigurationError, WorkloadError

# ``check explore --explore`` kinds, each switching ``CheckConfig.explore_<kind>``.
CHOICE_KINDS = ("order", "fates", "faults")


def _cmd_section(args: argparse.Namespace, **kwargs: object) -> int:
    """Print one section of EXPERIMENTS.md — the function of
    :mod:`repro.experiments.report` the subparser named — for ``--seed``."""
    from repro.experiments import report

    section = getattr(report, args.section)
    print(section(seed=args.seed, **args.section_args, **kwargs))
    return 0


def _cmd_concurrent(args: argparse.Namespace) -> int:
    return _cmd_section(args, rates=args.rates, txns=args.txns)


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import PRESETS, format_sweep_report, run_seed_sweep

    plan = PRESETS[args.mode]()
    if args.drop_rate is not None:
        plan.drop_rate = args.drop_rate
    if args.duplicate_rate is not None:
        plan.duplicate_rate = args.duplicate_rate
    if args.delay_rate is not None:
        plan.delay_rate = args.delay_rate
    if args.reorder_rate is not None:
        plan.reorder_rate = args.reorder_rate
    if args.crash_rate is not None:
        plan.crash_rate = args.crash_rate
    if args.partition_rate is not None:
        plan.partition_rate = args.partition_rate
    plan.validate()
    seeds = range(args.seed, args.seed + args.seeds)
    report = run_seed_sweep(
        seeds,
        sites=args.sites,
        db_size=args.db,
        txns=args.txns,
        plan=plan,
        mutate=args.mutate,
        jobs=args.jobs,
    )
    text = format_sweep_report(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    if args.mutate:
        # Mutation mode is an auditor self-test: silence means the auditor
        # would also miss a real regression.
        return 0 if report.total_violations > 0 else 1
    return 1 if report.total_violations > 0 else 0


def _cmd_trace_record(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs import record_chaos, record_experiment

    out = Path(args.out)
    if args.chaos_seed is not None:
        manifest = record_chaos(
            args.chaos_seed,
            out_dir=out,
            sites=args.sites,
            db_size=args.db,
            txns=args.txns,
            mode=args.mode,
        )
    else:
        manifest = record_experiment(args.exp, seed=args.seed, out_dir=out)
    print(
        f"recorded {manifest['scenario']} (seed {manifest['seed']}): "
        f"{manifest['events']} events, {len(manifest['transactions'])} txns, "
        f"{manifest['sim_time_ms']:.1f} ms simulated -> {out}/"
    )
    if manifest["violations"]:
        print(f"VIOLATIONS: {len(manifest['violations'])}")
    return 0


def _cmd_trace_show(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs.format import show_txn

    print(show_txn(Path(args.dir), args.txn, tree=args.tree))
    return 0


def _cmd_trace_list(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs.format import render_run_summary

    print(render_run_summary(Path(args.dir)))
    return 0


def _cmd_trace_cat(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs.events import EventKind
    from repro.obs.export import load_events
    from repro.obs.format import filter_events

    if args.limit < 0:
        raise ConfigurationError(f"--limit must be >= 0: {args.limit}")
    kinds = [kind.value for kind in EventKind]
    if args.kind is not None and args.kind not in kinds:
        raise ConfigurationError(
            f"unknown event kind {args.kind!r}; one of: {', '.join(kinds)}"
        )
    events = filter_events(
        load_events(Path(args.dir)),
        txn=args.txn,
        kind=args.kind,
        site=args.site,
    )
    shown = events[: args.limit]
    for event in shown:
        print(event.describe())
    if len(events) > len(shown):
        print(f"... {len(events) - len(shown)} more events (raise --limit)")
    return 0


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs.format import diff_runs

    problems = diff_runs(Path(args.dir_a), Path(args.dir_b))
    if not problems:
        print(f"identical: {args.dir_a} == {args.dir_b}")
        return 0
    for problem in problems:
        print(problem)
    return 1


def _cmd_trace_validate(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs import validate_run_dir

    problems = validate_run_dir(Path(args.dir))
    if not problems:
        print(f"ok: {args.dir} is schema-valid")
        return 0
    for problem in problems:
        print(f"SCHEMA: {problem}")
    return 1


def _cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments.report import generate_report

    # The SVGs go beside the report, not wherever the command was run from.
    content = generate_report(
        seed=args.seed,
        figures_dir=Path(args.output).parent / "figures",
        jobs=args.jobs,
    )
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(content)
    print(f"wrote {args.output}")
    return 0


def _print_invalid(problems: list[str]) -> int:
    """Report a validator's findings; the exit code (1 = invalid)."""
    for problem in problems:
        print(f"INVALID: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _emit_report(doc, validate, render, write_svg, args) -> int:
    """A finished report's way out, shared by ``soak run`` and
    ``recovery``: validate, print, then ``--out`` and ``--svg``."""
    from repro.obs.schema import write_json

    if _print_invalid(validate(doc)):
        return 1
    print(render(doc))
    if args.out:
        write_json(doc, args.out)
        print(f"report -> {args.out}")
    if args.svg:
        write_svg(doc, args.svg)
        print(f"figure -> {args.svg}")
    return 0


def _cmd_recovery(args: argparse.Namespace) -> int:
    """Run the recovery-time experiment family and emit the
    byte-deterministic repro.recovery/1 report (repro.recovery)."""
    from repro.recovery import (
        build_recovery_report,
        render_recovery_text,
        run_recovery_matrix,
        validate_recovery_report,
        write_recovery_svg,
    )

    cells = run_recovery_matrix(
        donor_counts=tuple(args.donors),
        stale_sizes=tuple(args.stale),
        policies=tuple(dict.fromkeys(args.policies)),
        seed=args.seed,
        wire_latency_ms=args.wire_ms,
        jobs=args.jobs,
    )
    doc = build_recovery_report(
        cells, seed=args.seed, wire_latency_ms=args.wire_ms
    )
    return _emit_report(
        doc, validate_recovery_report, render_recovery_text,
        write_recovery_svg, args,
    )


def _check_config_from_args(args: argparse.Namespace) -> "object":
    from repro.check import CheckConfig

    kinds = {k.strip() for k in args.explore.split(",") if k.strip()}
    unknown = kinds - set(CHOICE_KINDS)
    if unknown:
        raise CheckError(
            f"unknown choice kinds {sorted(unknown)} "
            f"(valid: {', '.join(CHOICE_KINDS)})"
        )
    return CheckConfig(
        sites=args.sites,
        db_size=args.db,
        txns=args.txns,
        seed=args.seed,
        mutate=args.mutate,
        explore_order="order" in kinds,
        explore_fates="fates" in kinds,
        explore_faults="faults" in kinds,
        max_branch=args.max_branch,
        max_drops=args.max_drops,
        max_crashes=args.max_crashes,
        max_recoveries=args.max_recoveries,
        min_up=args.min_up,
    )


def _print_check_stats(stats: "object") -> None:
    print(
        f"runs: {stats.runs}, states: {stats.states}, "
        f"pruned: {stats.pruned_visited} visited + {stats.pruned_sleep} sleep, "
        f"budget exhausted: {'yes' if stats.budget_exhausted else 'no'}"
    )


def _cmd_check_explore(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.check import build_schedule_doc, explore, save_schedule

    config = _check_config_from_args(args)
    result = explore(
        config,
        max_runs=args.max_runs,
        max_depth=args.max_depth,
        sleep_sets=not args.no_sleep_sets,
        jobs=args.jobs,
    )
    _print_check_stats(result.stats)
    if result.found:
        print(f"counterexample: {result.counterexample}")
        print(f"violates: {result.violation.format()}")
        if args.out:
            save_schedule(
                Path(args.out),
                build_schedule_doc(
                    config,
                    result.counterexample,
                    result.counterexample_run,
                    note="found by repro check explore",
                ),
            )
            print(f"wrote {args.out}")
    else:
        print("no violation found within budget")
    if args.mutate:
        # Mutation mode is an explorer self-test: exit 0 iff the planted
        # bug was found (mirrors `repro chaos --mutate`).
        return 0 if result.found else 1
    return 1 if result.found else 0


def _cmd_check_replay(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.check import (
        CheckConfig,
        diverged,
        export_counterexample,
        load_schedule,
        run_schedule,
    )

    doc = load_schedule(Path(args.file))
    config = CheckConfig.from_dict(doc["config"])
    if args.export:
        _manifest, result = export_counterexample(
            Path(args.export), config, doc["decisions"], note=doc.get("note", "")
        )
        print(f"exported obs artifacts -> {args.export}/")
    else:
        result = run_schedule(config, doc["decisions"])
    print(
        f"replayed {len(doc['decisions'])} decisions: "
        f"{result.events_fired} events, {result.commits} commits, "
        f"{result.aborts} aborts, "
        f"{len(result.violations)} violations"
    )
    for record in result.violations:
        print(f"  {record.format()}")
    mismatches = diverged(doc, result)
    for mismatch in mismatches:
        print(f"DIVERGED: {mismatch}", file=sys.stderr)
    if mismatches:
        return 1
    if "observed" in doc:
        print("replay matches the recorded run")
    return 0


def _cmd_check_shrink(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.check import (
        CheckConfig,
        build_schedule_doc,
        load_schedule,
        save_schedule,
        shrink,
    )

    doc = load_schedule(Path(args.file))
    config = CheckConfig.from_dict(doc["config"])
    result = shrink(config, doc["decisions"])
    print(
        f"shrunk {doc['decisions']} -> {result.vector} "
        f"({result.removed} deviations removed, {result.tests_run} test runs, "
        f"invariant {result.invariant!r} preserved)"
    )
    out = args.out or args.file
    save_schedule(
        Path(out),
        build_schedule_doc(
            config,
            result.vector,
            result.run,
            note=f"shrunk from {len(doc['decisions'])} decisions",
        ),
    )
    print(f"wrote {out}")
    return 0


def _cmd_check_stats(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.check import CheckConfig, load_schedule
    from repro.metrics.records import ViolationRecord

    doc = load_schedule(Path(args.file))
    config = CheckConfig.from_dict(doc["config"])
    decisions = doc["decisions"]
    print(f"schedule {args.file} ({doc['schema']})")
    print(
        f"  system: {config.sites} sites, {config.db_size} items, "
        f"{config.txns} txns, seed {config.seed}"
        f"{', MUTATED' if config.mutate else ''}"
    )
    kinds = [kind for kind in CHOICE_KINDS if getattr(config, f"explore_{kind}")]
    print(f"  choice kinds: {', '.join(kinds) or 'none'}")
    print(
        f"  decisions: {decisions} "
        f"({sum(1 for v in decisions if v)} deviations)"
    )
    observed = doc.get("observed")
    if observed:
        print(
            f"  observed: {observed['events_fired']} events, "
            f"{observed['commits']} commits, {observed['aborts']} aborts, "
            f"{observed['choice_points']} choice points, "
            f"{len(observed['violations'])} violations"
        )
        for violation in observed["violations"]:
            record = ViolationRecord(
                violation["invariant"], violation["time"], violation["description"]
            )
            print(f"    {record.format()}")
    if doc.get("note"):
        print(f"  note: {doc['note']}")
    return 0


def _cmd_check_selftest(args: argparse.Namespace) -> int:
    """End-to-end proof the checker catches real bugs.

    Re-introduces the PR-1 protocol mutation (fail-lock setting
    disabled), explores within a small budget, shrinks the counterexample
    to a 1-minimal schedule, exports it with obs artifacts, and replays
    the export in-process to verify it reproduces.  Exit 0 iff every
    stage succeeds — this is what CI runs.
    """
    import tempfile
    from pathlib import Path

    from repro.check import (
        CheckConfig,
        diverged,
        explore,
        export_counterexample,
        load_schedule,
        run_schedule,
        shrink,
    )
    from repro.obs import validate_run_dir

    config = CheckConfig(mutate=True)
    result = explore(config, max_runs=args.max_runs, jobs=args.jobs)
    _print_check_stats(result.stats)
    if not result.found:
        print("SELFTEST: explorer missed the planted mutation", file=sys.stderr)
        return 1
    print(f"found: {result.counterexample} ({result.violation.format()})")

    shrunk = shrink(config, result.counterexample)
    print(
        f"shrunk to: {shrunk.vector} ({shrunk.tests_run} test runs, "
        f"invariant {shrunk.invariant!r})"
    )

    out = Path(args.out) if args.out else Path(tempfile.mkdtemp(prefix="check-"))
    manifest, _ = export_counterexample(
        out, config, shrunk.vector, note="mutation self-test counterexample"
    )
    problems = validate_run_dir(out)
    if problems or not manifest["violations"]:
        for problem in problems:
            print(f"SELFTEST: export invalid: {problem}", file=sys.stderr)
        if not manifest["violations"]:
            print("SELFTEST: export lost the violation", file=sys.stderr)
        return 1
    print(f"exported counterexample + obs artifacts -> {out}/")

    doc = load_schedule(out / "schedule.json")
    replay = run_schedule(CheckConfig.from_dict(doc["config"]), doc["decisions"])
    mismatches = diverged(doc, replay)
    for mismatch in mismatches:
        print(f"SELFTEST: replay diverged from export: {mismatch}", file=sys.stderr)
    if mismatches:
        return 1
    print("replay reproduces the violation; selftest passed")
    return 0


def _soak_config_from_args(args: argparse.Namespace) -> "SoakConfig":
    from repro.soak import SoakConfig

    return SoakConfig(
        seed=args.seed,
        txns=args.txns,
        rate_tps=args.rate,
        shape=args.shape,
        peak_tps=args.peak,
        period_ms=args.period_ms,
        workload=args.workload,
        skew=args.skew,
        storm_every_ms=args.storm_every_ms,
        read_fraction=args.read_fraction,
        num_sites=args.sites,
        db_size=args.db,
        window_ms=args.window_ms,
        detection=args.detection,
        recovery_policy=args.recovery_policy,
        exemplars=args.exemplars,
        fail_site=None if args.no_fail else args.fail_site,
        fail_at_ms=args.fail_at_ms,
        recover_at_ms=args.recover_at_ms,
    )


def _cmd_soak_run(args: argparse.Namespace) -> int:
    """Run a heavy-traffic soak through a fail/recover cycle and report
    the windowed availability/latency series (repro.soak)."""
    from repro.soak import (
        build_report,
        render_soak_text,
        run_soak,
        validate_soak_report,
        write_soak_svg,
    )

    config = _soak_config_from_args(args)
    result = run_soak(config)
    rc = _emit_report(
        build_report(result), validate_soak_report, render_soak_text,
        write_soak_svg, args,
    )
    if rc == 0 and args.trace_exemplars:
        return _soak_trace_exemplars(config, result, args.trace_exemplars)
    return rc


def _soak_trace_exemplars(config, result, out_dir: str) -> int:
    """Re-run the soak with tracing on and export a run directory whose
    interesting transactions are the first run's reservoir exemplars.

    The re-run replays byte-identically (same config, same seed), so the
    exemplar txn ids sampled by the first run name the same transactions
    in the traced run — no need to pay tracing overhead while sampling.
    """
    from pathlib import Path

    from repro.obs.export import export_run
    from repro.obs.schema import write_json
    from repro.obs.sink import TraceSink
    from repro.soak import run_soak

    exemplar_ids = sorted(e["txn"] for e in result.sink.exemplars.items)
    if not exemplar_ids:
        print(
            "no exemplars sampled (raise --exemplars); nothing to trace",
            file=sys.stderr,
        )
        return 1
    sink = TraceSink(enabled=True)
    traced = run_soak(config, trace=sink)
    out = Path(out_dir)
    export_run(
        out,
        sink,
        scenario="soak",
        seed=config.seed,
        sites=config.num_sites,
        db_size=config.db_size,
        sim_time_ms=traced.elapsed_ms,
    )
    write_json({"txns": exemplar_ids}, out / "exemplars.json")
    from repro.obs.timeline import build_timelines

    # A reservoir exemplar can be a transaction the fail window settled
    # without a commit/abort pair, which has no complete trace window.
    shown = build_timelines(sink.events)
    print(f"traced run -> {out}/ ({len(exemplar_ids)} exemplar txns)")
    for txn in exemplar_ids:
        if txn in shown:
            print(f"  repro trace show {txn} --dir {out}")
        else:
            print(f"  txn {txn}: settled without a complete window (no timeline)")
    return 0


def _cmd_soak_validate(args: argparse.Namespace) -> int:
    """Schema-check a soak report written by ``repro soak run --out``."""
    from repro.soak import validate_soak_report

    with open(args.file, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if _print_invalid(validate_soak_report(doc)):
        return 1
    totals = doc["totals"]
    print(
        f"valid soak report ({doc['schema']}): {totals['txns']} txns, "
        f"{totals['commits']} commits, {len(doc['windows']['series'])} "
        f"windows"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser.  Each ``choices=`` reads its
    table, and each default a config or the recovery matrix states is read
    from there."""
    from repro.chaos import PRESETS
    from repro.check import CheckConfig
    from repro.core.recovery import RecoveryPolicy
    from repro.obs.record import EXPERIMENT_PRESETS
    from repro.recovery import experiment
    from repro.soak.engine import LOAD_SHAPES, SOAK_WORKLOADS, SoakConfig
    from repro.system.config import FailureDetection

    policies = [policy.value for policy in RecoveryPolicy]

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce Bhargava/Noll/Sabo 1987: replicated copy "
        "control during site failure and recovery.",
    )
    parser.add_argument("--seed", type=int, default=42, help="run seed")
    parser.add_argument(
        "--profile", action="store_true",
        help="run the command under cProfile; print the top functions "
        "by cumulative time",
    )
    # ``recovery`` and ``check selftest`` have no --jobs: they use every
    # CPU, or run in-process under --profile.
    parser.set_defaults(jobs=None)
    sub = parser.add_subparsers(dest="command", required=True)

    # Each prints the section of EXPERIMENTS.md that `repro report` joins.
    for command, help_text, section, section_args in (
        ("exp1", "§2 overhead tables (E1-T1..T3)", "exp1_section", {}),
        ("fig1", "§3 availability table and Figure 1", "figure1_section", {}),
        ("fig2", "§4 scenario 1 table and Figure 2", "experiment3_section",
         {"scenarios": (1,)}),
        ("fig3", "§4 scenario 2 table and Figure 3", "experiment3_section",
         {"scenarios": (2,)}),
        ("ablations", "design-choice studies A1-A6, A8-A12",
         "ablations_section", {}),
    ):
        sub.add_parser(command, help=help_text).set_defaults(
            fn=_cmd_section, section=section, section_args=section_args
        )

    concurrent = sub.add_parser(
        "concurrent", help="complete-RAID arrival-rate sweep (A8)"
    )
    concurrent.add_argument("--txns", type=int, default=300,
                            help="transactions per arrival rate")
    concurrent.add_argument(
        "--rates", type=float, nargs="+", default=[2.0, 6.0, 12.0],
        help="arrival rates (txns/sec) to sweep",
    )
    concurrent.set_defaults(
        fn=_cmd_concurrent, section="concurrent_section", section_args={}
    )

    chaos = sub.add_parser(
        "chaos",
        help="randomized fault injection + invariant audit seed sweep",
    )
    chaos.add_argument(
        "--seeds", type=int, default=20,
        help="number of seeds to sweep, starting at --seed",
    )
    chaos.add_argument("--txns", type=int, default=60, help="txns per seed")
    chaos.add_argument(
        "--mode",
        choices=list(PRESETS),
        default="default",
        help="fault plan preset; lossy-core faults ALL message types "
        "(silent drops) and runs the retransmission + timeout layers; "
        "correlated fells several sites in one slot, flapping re-fails "
        "sites right after recovery, partition-recovery isolates a "
        "recovering site mid-period "
        "(explicit rate flags still override the preset)",
    )
    chaos.add_argument("--sites", type=int, default=4, help="database sites")
    chaos.add_argument("--db", type=int, default=32, help="data items")
    chaos.add_argument(
        "--mutate", action="store_true",
        help="disable fail-lock setting (auditor self-test: exit 0 iff "
        "the auditor catches the planted bug)",
    )
    chaos.add_argument("--drop-rate", type=float, default=None)
    chaos.add_argument("--duplicate-rate", type=float, default=None)
    chaos.add_argument("--delay-rate", type=float, default=None)
    chaos.add_argument(
        "--reorder-rate", type=float, default=None,
        help="FIFO-breaking early delivery (protocol-unsafe demo)",
    )
    chaos.add_argument("--crash-rate", type=float, default=None)
    chaos.add_argument(
        "--partition-rate", type=float, default=None,
        help="network partitions (ROWAA-unsafe demo; see docs/PROTOCOL.md)",
    )
    chaos.add_argument("--output", default=None, help="write report to file")
    chaos.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the seeds (default: every CPU; "
        "1 runs in-process; identical report)",
    )
    chaos.set_defaults(fn=_cmd_chaos)

    trace = sub.add_parser(
        "trace", help="record/inspect structured run traces (repro.obs)"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    record = trace_sub.add_parser(
        "record", help="trace an experiment preset or chaos seed"
    )
    record.add_argument(
        "--exp", choices=EXPERIMENT_PRESETS, default="1",
        help="experiment preset to trace (ignored with --chaos-seed)",
    )
    record.add_argument(
        "--chaos-seed", type=int, default=None,
        help="trace one chaos seed instead of an experiment preset",
    )
    record.add_argument(
        "--mode", choices=list(PRESETS), default="default",
        help="with --chaos-seed: the fault plan preset, as for repro chaos",
    )
    record.add_argument("--sites", type=int, default=4,
                        help="chaos only: database sites")
    record.add_argument("--db", type=int, default=32,
                        help="chaos only: data items")
    record.add_argument("--txns", type=int, default=60,
                        help="chaos only: transactions")
    record.add_argument("--out", default="run", help="run directory to write")
    record.set_defaults(fn=_cmd_trace_record)

    show = trace_sub.add_parser(
        "show", help="phase-attributed timeline of one transaction"
    )
    show.add_argument("txn", type=int, help="transaction id")
    show.add_argument("--dir", default="run", help="exported run directory")
    show.add_argument(
        "--tree", action="store_true", help="also print the causal event tree"
    )
    show.set_defaults(fn=_cmd_trace_show)

    lst = trace_sub.add_parser("list", help="per-transaction run summary")
    lst.add_argument("--dir", default="run", help="exported run directory")
    lst.set_defaults(fn=_cmd_trace_list)

    cat = trace_sub.add_parser("cat", help="print (filtered) raw events")
    cat.add_argument("--dir", default="run", help="exported run directory")
    cat.add_argument("--txn", type=int, default=None, help="filter by txn id")
    cat.add_argument(
        "--kind", default=None, help="filter by event kind (e.g. msg.drop)"
    )
    cat.add_argument("--site", type=int, default=None, help="filter by site")
    cat.add_argument("--limit", type=int, default=200, help="max events shown")
    cat.set_defaults(fn=_cmd_trace_cat)

    diff = trace_sub.add_parser(
        "diff", help="compare two exported runs (exit 1 on divergence)"
    )
    diff.add_argument("dir_a", help="first run directory")
    diff.add_argument("dir_b", help="second run directory")
    diff.set_defaults(fn=_cmd_trace_diff)

    validate = trace_sub.add_parser(
        "validate", help="schema-check a run directory (exit 1 on problems)"
    )
    validate.add_argument("--dir", default="run", help="exported run directory")
    validate.set_defaults(fn=_cmd_trace_validate)

    check = sub.add_parser(
        "check",
        help="deterministic schedule-space exploration (repro.check)",
    )
    check_sub = check.add_subparsers(dest="check_command", required=True)

    checked = CheckConfig()

    def _add_shape_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--sites", type=int, default=checked.sites, help="database sites")
        p.add_argument("--db", type=int, default=checked.db_size, help="data items")
        p.add_argument("--txns", type=int, default=checked.txns, help="transactions")
        p.add_argument(
            "--mutate", action="store_true",
            help="disable fail-lock setting (explorer self-test: exit 0 "
            "iff a violating schedule is found)",
        )
        p.add_argument(
            "--explore",
            default=",".join(
                kind for kind in CHOICE_KINDS if getattr(checked, f"explore_{kind}")
            ),
            help=f"comma-separated choice kinds: {', '.join(CHOICE_KINDS)}",
        )
        p.add_argument(
            "--max-branch", type=int, default=checked.max_branch,
            help="alternatives offered per choice point",
        )
        p.add_argument(
            "--max-drops", type=int, default=checked.max_drops,
            help="fate choices: message drops per run",
        )
        p.add_argument(
            "--max-crashes", type=int, default=checked.max_crashes,
            help="fault choices: crashes per run",
        )
        p.add_argument(
            "--max-recoveries", type=int, default=checked.max_recoveries,
            help="fault choices: recoveries per run",
        )
        p.add_argument(
            "--min-up", type=int, default=checked.min_up,
            help="never crash below this many up sites",
        )

    explore_p = check_sub.add_parser(
        "explore", help="bounded-DFS the schedule space for violations"
    )
    _add_shape_args(explore_p)
    explore_p.add_argument(
        "--max-runs", type=int, default=200,
        help="total steered re-executions",
    )
    explore_p.add_argument(
        "--max-depth", type=int, default=40,
        help="deepest decision index to branch at",
    )
    explore_p.add_argument(
        "--no-sleep-sets", action="store_true",
        help="disable the commuting-deliveries pruning heuristic",
    )
    explore_p.add_argument(
        "--out", default=None, help="write the counterexample schedule file"
    )
    explore_p.add_argument(
        "--jobs", type=int, default=None,
        help="run the next frontier prefixes ahead on N-1 pool workers "
        "(default: every CPU; the result is the --jobs 1 one)",
    )
    explore_p.set_defaults(fn=_cmd_check_explore)

    replay_p = check_sub.add_parser(
        "replay",
        help="re-execute a schedule file; exit 1 if it diverges from "
        "the recorded run",
    )
    replay_p.add_argument("--file", required=True, help="schedule file")
    replay_p.add_argument(
        "--export", default=None,
        help="also export obs artifacts (run.json, events.jsonl, "
        "trace.json) to this directory",
    )
    replay_p.set_defaults(fn=_cmd_check_replay)

    shrink_p = check_sub.add_parser(
        "shrink", help="delta-debug a schedule file to a minimal one"
    )
    shrink_p.add_argument("--file", required=True, help="schedule file")
    shrink_p.add_argument(
        "--out", default=None,
        help="write the shrunk schedule here (default: overwrite --file)",
    )
    shrink_p.set_defaults(fn=_cmd_check_shrink)

    stats_p = check_sub.add_parser(
        "stats", help="summarize a schedule file"
    )
    stats_p.add_argument("--file", required=True, help="schedule file")
    stats_p.set_defaults(fn=_cmd_check_stats)

    selftest_p = check_sub.add_parser(
        "selftest",
        help="plant the PR-1 protocol mutation; explore, shrink, export, "
        "replay (exit 0 iff the whole pipeline succeeds — the CI smoke)",
    )
    selftest_p.add_argument(
        "--max-runs", type=int, default=60,
        help="exploration budget for the self-test",
    )
    selftest_p.add_argument(
        "--out", default=None,
        help="counterexample directory (default: a temp dir)",
    )
    selftest_p.set_defaults(fn=_cmd_check_selftest)

    soak = sub.add_parser(
        "soak",
        help="heavy-traffic soak through a fail/recover cycle (repro.soak)",
    )
    soak_sub = soak.add_subparsers(dest="soak_command", required=True)

    soak_run = soak_sub.add_parser(
        "run",
        help="sustained open-loop run with streaming metrics and a "
        "scheduled crash; reports the availability dip and recovery",
    )
    soaked = SoakConfig()
    soak_run.add_argument("--txns", type=int, default=soaked.txns,
                          help="transactions to complete")
    soak_run.add_argument("--rate", type=float, default=soaked.rate_tps,
                          help="base arrival rate (txns/sec)")
    soak_run.add_argument(
        "--shape", choices=list(LOAD_SHAPES),
        default=soaked.shape, help="time-varying load shape",
    )
    soak_run.add_argument(
        "--peak", type=float, default=soaked.peak_tps,
        help="peak rate for ramp/diurnal/flash (default 2x --rate)",
    )
    soak_run.add_argument(
        "--period-ms", type=float, default=soaked.period_ms,
        help="diurnal period / flash-crowd onset time",
    )
    soak_run.add_argument(
        "--workload",
        choices=list(SOAK_WORKLOADS),
        default=soaked.workload,
        help="uniform: flat popularity; zipf: static skewed popularity; "
        "storm: the hot set rotates every --storm-every-ms; "
        "debitcredit: TP1 account/teller/branch writes; "
        "wisconsin: read scans + point updates (--read-fraction)",
    )
    soak_run.add_argument("--skew", type=float, default=soaked.skew,
                          help="Zipf skew parameter")
    soak_run.add_argument(
        "--storm-every-ms", type=float, default=soaked.storm_every_ms,
        help="storm workload: hot-set rotation period",
    )
    soak_run.add_argument(
        "--read-fraction", type=float, default=soaked.read_fraction,
        help="wisconsin workload: fraction of transactions that are "
        "read scans",
    )
    soak_run.add_argument("--sites", type=int, default=soaked.num_sites,
                          help="database sites")
    soak_run.add_argument("--db", type=int, default=soaked.db_size, help="data items")
    soak_run.add_argument("--window-ms", type=float, default=soaked.window_ms,
                          help="metrics window width")
    soak_run.add_argument(
        "--detection", choices=[mode.value for mode in FailureDetection],
        default=soaked.detection,
        help="how survivors learn of the crash (timeout = paper-faithful "
        "client-visible dip)",
    )
    soak_run.add_argument(
        "--recovery-policy", choices=policies, default=soaked.recovery_policy,
        help="how the crashed site catches up (non-default values add a "
        "recoveries section to the report)",
    )
    soak_run.add_argument("--exemplars", type=int, default=soaked.exemplars,
                          help="reservoir-sampled exemplar transactions")
    soak_run.add_argument(
        "--trace-exemplars", default=None, metavar="DIR",
        help="re-run the soak with tracing enabled and export a run "
        "directory focused on the sampled exemplar transactions",
    )
    soak_run.add_argument("--fail-site", type=int, default=soaked.fail_site,
                          help="site to crash")
    soak_run.add_argument("--no-fail", action="store_true",
                          help="disable fault injection entirely")
    soak_run.add_argument(
        "--fail-at-ms", type=float, default=soaked.fail_at_ms,
        help="crash time (default: 35%% through the estimated run)",
    )
    soak_run.add_argument(
        "--recover-at-ms", type=float, default=soaked.recover_at_ms,
        help="recovery start (default: fail time + 25%% of the run)",
    )
    soak_run.add_argument("--out", default=None,
                          help="write the JSON report here")
    soak_run.add_argument("--svg", default=None,
                          help="write the availability/latency figure here")
    soak_run.set_defaults(fn=_cmd_soak_run)

    soak_validate = soak_sub.add_parser(
        "validate",
        help="schema-check a soak report (exit 1 on problems)",
    )
    soak_validate.add_argument("--file", required=True,
                               help="report file from soak run --out")
    soak_validate.set_defaults(fn=_cmd_soak_validate)

    recovery = sub.add_parser(
        "recovery",
        help="recovery-time experiment family: time-to-last-faillock-"
        "clear vs stale size vs donor count vs policy (repro.recovery)",
    )
    recovery.add_argument(
        "--donors", type=int, nargs="+", default=experiment.DEFAULT_DONORS,
        help="donor counts to sweep (cluster is donors+1 sites)",
    )
    recovery.add_argument(
        "--stale", type=int, nargs="+", default=experiment.DEFAULT_STALE_SIZES,
        help="stale-data sizes to sweep (db items staled by a cold crash)",
    )
    recovery.add_argument(
        "--policies", nargs="+", default=experiment.DEFAULT_POLICIES,
        choices=policies,
        help="recovery policies to compare",
    )
    recovery.add_argument(
        "--wire-ms", type=float, default=9.0,
        help="wire latency (ms); higher latency rewards fan-out more",
    )
    recovery.add_argument("--out", default=None,
                          help="write the repro.recovery/1 JSON report here")
    recovery.add_argument("--svg", default=None,
                          help="write the recovery-time figure here")
    recovery.set_defaults(fn=_cmd_recovery)

    report = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    report.add_argument("--output", default="EXPERIMENTS.md")
    report.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the recovery cells and stability "
        "replications (default: every CPU; 1 runs in-process)",
    )
    report.set_defaults(fn=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point.

    A bad argument or an unreadable input — whichever command met it — is
    one ``error: ...`` line on stderr and exit 2: not a traceback, and not
    exit 1, which means "violations found" / "runs differ" / "report
    invalid".  A ``SimulationError`` (a stalled run) keeps its traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        # Every ``--jobs`` (chaos, check explore, report) counts worker
        # processes; 0 or fewer would run serially without a word.
        if args.jobs is not None and args.jobs < 1:
            raise ConfigurationError(f"--jobs must be >= 1: {args.jobs}")
        if args.profile:
            if args.jobs is None:
                args.jobs = 1  # cProfile sees this process, not the workers
            import cProfile
            import pstats

            profiler = cProfile.Profile()
            rc = profiler.runcall(args.fn, args)
            stats = pstats.Stats(profiler, stream=sys.stdout)
            stats.strip_dirs().sort_stats("cumulative").print_stats(25)
            return rc
        return args.fn(args)
    except json.JSONDecodeError as exc:
        print(f"error: input is not JSON: {exc}", file=sys.stderr)
    except (ConfigurationError, CheckError, WorkloadError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
