"""The repo benchmark: six workloads, end-to-end and per-layer metrics.

    python3 bench/run.py                      # every workload, untraced
    python3 bench/run.py --trace              # ... each followed by its traced pass
    python3 bench/run.py --workload lock-storm --seed 7 --seconds 10 --trace 0
    python3 bench/run.py --agree              # two full sets, compared to the bounds
    python3 bench/run.py --rebaseline         # rewrite bench/expected.json (seed 42)

One workload runs in this process; without ``--workload`` each one runs
in a fresh child process.  The last line of a single-workload run is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the exit
code is non-zero when any output check failed.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
EXPECTED = BENCH / "expected.json"
PINNED_SEED = 42
DEFAULT_SECONDS = 12


def _import_simulator() -> None:
    """Put the checkout's ``src`` on the path; exit 2 when there is none."""
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no simulator source under {ROOT / 'src'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))


def _self_command(*extra: object) -> list[str]:
    return [sys.executable, str(BENCH / "run.py"), *map(str, extra)]


def _show(name: str, m: dict) -> None:
    line = f"  {name:36s} {m['value']:>14.6g} {m['unit']:6s}"
    if "n" in m:
        line += f" q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n={m['n']}"
    print(line)


def _pool_speedup(seed: int) -> tuple[float, bool]:
    """chaos-sweep at ``jobs=2`` on a warm pool against serial, untraced."""
    from repro.perf import shutdown_pool
    from harness import timed
    from workloads import chaos_halves

    jobs = min(2, os.cpu_count() or 1)
    try:
        serial, serial_wall = timed(chaos_halves, seed)
        chaos_halves(seed, jobs=jobs)  # forks and warms the workers
        parallel, parallel_wall = timed(chaos_halves, seed, jobs)
    finally:
        shutdown_pool()
    return serial_wall / parallel_wall, parallel == serial


def _traced_pass(workload, seed: int, reps, pool) -> tuple[object, dict[str, dict]]:
    """Block 0 again under the span wrappers: its outcome and every
    per-layer metric; the spans go to ``bench/out/<workload>.trace.json``."""
    import harness
    import tracing

    tracer = tracing.Tracer()
    tracer.install()  # before the inputs: sites pre-bind their handlers
    try:
        traced, traced_wall = harness.timed(
            tracer.run_root, lambda: workload.build(seed)(0))
    finally:
        tracer.uninstall()
    values = tracing.per_layer_metrics(
        tracer, reps.outcomes[0], traced_wall_s=traced_wall,
        untraced_wall_s=reps.walls_s[0], warmup_wall_s=reps.warmup_wall_s, pool=pool,
    )
    tracer.write(OUT / f"{workload.name}.trace.json", workload.name, seed)
    return traced, {name: {"value": values[name], "unit": unit}
                    for name, unit, _better in tracing.PER_LAYER}


def run_workload(args: argparse.Namespace) -> int:
    """Measure one workload in this process; returns the exit code."""
    import harness
    from workloads import BY_NAME

    if args.workload not in BY_NAME:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {sorted(BY_NAME)}")
    workload = BY_NAME[args.workload]
    if args.setup_probe:
        workload.build(args.seed)
        return 0
    pinned = None
    if args.seed == PINNED_SEED and not args.rebaseline:
        pinned = json.loads(EXPECTED.read_text())[workload.name]
    print(f"{workload.name}  seed {args.seed}  {workload.loop}  "
          f"(unit of work: {workload.unit})")

    pool = None
    if args.trace and workload.name == "chaos-sweep":
        pool = _pool_speedup(args.seed)
    run = workload.build(args.seed)
    if args.trace:
        reps = harness.repeat(run, args.seconds / 2, min_reps=3)
    else:
        reps = harness.repeat(run, args.seconds)
    attempted, failed, problems = harness.verdict(reps, pinned)
    metrics: dict[str, dict] = {}
    # Block 0 is the one the digest, the model statistics and the traced
    # pass are about; the other blocks only add inputs to the timing.
    first = reps.outcomes[0] if reps.outcomes else None
    if first is not None:
        raw = [o.work / wall for o, wall in zip(reps.outcomes, reps.walls_s)]
        q1, median, q3 = harness.quartiles(raw)
        print(f"  {len(raw)} timed reps, one input block each: {median:.6g} "
              f"{workload.unit} per wall second  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"(block 0: warm-up {reps.warmup_wall_s:.4f} s, then {reps.walls_s[0]:.4f} s)")

    if first is not None and not args.trace:
        rates = [o.work / wall for o, wall in zip(reps.outcomes, reps.ref_walls_s)]
        metrics["work_per_ref_s"] = harness.metric(rates, "1/s")
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
        probes = harness.probe_setup(_self_command(
            "--workload", workload.name, "--seed", args.seed, "--setup-probe"))
        metrics["setup_s"] = harness.metric(probes, "s")
    elif first is not None:
        traced, metrics = _traced_pass(workload, args.seed, reps, pool)
        attempted += traced.work
        if traced.digest != first.digest:
            failed += traced.work
            problems.append(f"tracing perturbed the run: digest {traced.digest} "
                            f"traced, {first.digest} untraced")

    for name, m in metrics.items():
        if m["value"] or not args.trace:  # a layer that did not run prints nothing
            _show(name, m)
    if first is not None:
        print("  " + "  ".join(f"{k}={v}" for k, v in first.facts.items()))
        print(f"  digest {first.digest}"
              + (" (matches bench/expected.json)" if pinned == first.digest else ""))
    for problem in problems:
        print(f"  FAILED CHECK: {problem}", file=sys.stderr)
    correct = failed == 0 and first is not None
    print(f"  failed {failed} of {attempted} attempted "
          f"(failed_share {failed / max(attempted, 1):.6f})")

    OUT.mkdir(exist_ok=True)
    detail = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "correct": correct, "attempted": attempted, "failed": failed,
        "problems": problems, "digest": first.digest if first else None,
        "walls_s": reps.walls_s, "ref_walls_s": reps.ref_walls_s, "metrics": metrics,
        "model": first.model if first else {}, "facts": first.facts if first else {},
    }
    kind = "layers" if args.trace else "result"
    (OUT / f"{workload.name}.{kind}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": max(attempted, 1), "failed": failed,
        "metrics": {n: {"value": m["value"], "unit": m["unit"]}
                    for n, m in metrics.items()},
    }))
    return 0 if correct else 1


# -- every workload, each in a fresh child process ------------------------


def run_set(args: argparse.Namespace, names: list[str]) -> dict[str, dict]:
    """Run ``names`` one child each (plus a traced child with ``--trace``);
    returns ``{workload: detail document}`` with the two passes merged."""
    results = {}
    for name in names:
        common = ["--workload", name, "--seed", args.seed, "--seconds", args.seconds]
        if args.rebaseline:
            common.append("--rebaseline")
        merged: dict = {"correct": True, "metrics": {}}
        for trace, kind in ((0, "result"), (1, "layers")):
            if trace and not args.trace:
                continue
            start = time.perf_counter()
            code = subprocess.run(_self_command(*common, "--trace", trace)).returncode
            print(f"  ({name} --trace {trace}: {time.perf_counter() - start:.1f} s, "
                  f"exit {code})\n")
            detail = json.loads((OUT / f"{name}.{kind}.json").read_text())
            merged["correct"] &= code == 0 and detail["correct"]
            merged["metrics"].update(detail["metrics"])
            merged["digest"] = detail["digest"]
        results[name] = merged
    return results


def run_all(args: argparse.Namespace) -> int:
    import harness
    import tracing
    from workloads import WORKLOADS

    names = [w.name for w in WORKLOADS]
    start = time.perf_counter()
    first = run_set(args, names)
    ok = all(r["correct"] for r in first.values())
    if args.rebaseline:
        if not ok:
            print("not rebaselining: an output check failed", file=sys.stderr)
            return 1
        EXPECTED.write_text(
            json.dumps({n: first[n]["digest"] for n in names}, indent=1) + "\n")
        print(f"wrote {EXPECTED.relative_to(ROOT)}")
    if args.agree:
        second = run_set(args, names)
        ok &= all(r["correct"] for r in second.values())
        for result in (*first.values(), *second.values()):
            result["metrics"]["digest"] = {"value": result["digest"]}
        exact = ["digest"] + [n for n, _u, _b in tracing.PER_LAYER if tracing.is_exact(n)]
        rows = harness.agree(
            {n: r["metrics"] for n, r in first.items()},
            {n: r["metrics"] for n, r in second.items()}, exact,
        )
        print(f"{'workload':16s} {'metric':14s} {'first':>12s} {'second':>12s} "
              f"{'diff':>8s} {'bound':>6s}")
        for row in rows:
            if row["bound"] or not row["ok"]:  # exact metrics print only on a miss
                print(f"{row['workload']:16s} {row['metric']:14s} {row['first']:>12.6g} "
                      f"{row['second']:>12.6g} {row['diff']:>8.2%} {row['bound']:>6.0%} "
                      f"{'ok' if row['ok'] else 'DISAGREE'}")
        missed = [r for r in rows if not r["ok"]]
        print(f"{len(rows) - len(missed)} of {len(rows)} comparisons agree")
        ok &= not missed
    print(f"{len(names)} workloads in {time.perf_counter() - start:.0f} s: "
          f"{'all output checks passed' if ok else 'FAILED'}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run this workload in-process "
                        "(default: every workload, one child process each)")
    parser.add_argument("--seed", type=int, default=PINNED_SEED,
                        help="shifts every workload's seeds; 42 is digest-pinned")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long the timed repetitions run (at least 5 of them)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: the traced pass and per-layer metrics")
    parser.add_argument("--agree", action="store_true",
                        help="run two full sets and compare them to the bounds")
    parser.add_argument("--rebaseline", action="store_true",
                        help="rewrite bench/expected.json from this run")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.rebaseline and args.seed != PINNED_SEED:
        parser.error(f"--rebaseline pins seed {PINNED_SEED}")
    _import_simulator()
    return run_all(args) if args.workload is None else run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
