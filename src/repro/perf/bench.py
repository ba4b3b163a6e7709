"""Continuous benchmark harness (``repro bench``).

Times the simulator's hot loop on three fixed presets and reports
**events/sec** (scheduler events fired per wall-clock second — the
simulator's native throughput unit), wall-clock seconds, and peak RSS:

``concurrent``
    One open-loop run: 400 transactions under strict 2PL + global
    deadlock detection (the preset dominated by lock/deadlock work).
``chaos``
    An 8-seed fault-injection sweep with online invariant auditing
    (the preset dominated by message flow and the audit probes).
``serial``
    The paper's Figure 1 failure/recovery scenario (serial
    transactions, fail-locks, copiers).

Methodology (matches how the baselines were captured; see
docs/PERFORMANCE.md): events are counted by wrapping
:meth:`EventScheduler.run`, each preset gets one warm run (imports,
code caches) and then the best of N timed runs is reported — best, not
mean, because scheduling noise only ever adds time.  Peak RSS comes
from ``resource.getrusage`` and is a process-lifetime high-water mark,
so it is attributed to the preset that first reaches it.

The harness writes two schema-stable JSON artifacts at the repo root:

* ``BENCH_simcore.json`` — the three presets above, each with the
  pre-optimization baseline and the resulting speedup.
* ``BENCH_sweep.json`` — serial vs. parallel wall-clock for the same
  chaos sweep, plus an ``identical`` bit asserting the parallel report
  equalled the serial one (the determinism contract, re-checked on
  every benchmark run).

``repro bench --check`` re-measures and fails (exit 1) when any preset
regresses more than ``--tolerance`` (default 30 %) below the committed
artifact — loose enough to absorb machine noise, tight enough to catch
a real fast-path regression.  CI runs it with ``--quick``.
"""

from __future__ import annotations

import json
import resource
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

from repro.sim.scheduler import EventScheduler

BENCH_SCHEMA = "repro.bench/1"

# Pre-optimization throughput (events/sec), measured on these exact
# presets at the commit before the fast-path work (9c4beba) on the
# reference container: warm run + best of 3, Python 3.12.  Committed
# artifacts carry these alongside current numbers so the speedup is
# auditable without checking out the old tree.
BASELINE_EVENTS_PER_SEC = {
    "concurrent": 17995.0,
    "chaos": 66799.0,
    "serial": 69370.0,
}

_PRESET_FIELDS = (
    "events",
    "wall_s",
    "events_per_sec",
    "peak_rss_kb",
    "baseline_events_per_sec",
    "speedup",
)


@contextmanager
def _count_fired() -> Iterator[dict[str, int]]:
    """Count scheduler events fired inside the block (all instances)."""
    counter = {"fired": 0}
    original = EventScheduler.run

    def counting_run(self: EventScheduler, max_events: int = 10_000_000) -> int:
        fired = original(self, max_events)
        counter["fired"] += fired
        return fired

    EventScheduler.run = counting_run  # type: ignore[method-assign]
    try:
        yield counter
    finally:
        EventScheduler.run = original  # type: ignore[method-assign]


def _preset_concurrent(quick: bool) -> Callable[[], None]:
    def run() -> None:
        from repro.system.config import SystemConfig
        from repro.system.openloop import run_open_loop

        run_open_loop(
            SystemConfig(seed=42, concurrency_control=True),
            txn_count=120 if quick else 400,
            arrival_rate_tps=12.0,
        )

    return run


def _preset_chaos(quick: bool) -> Callable[[], None]:
    def run() -> None:
        from repro.chaos import run_seed_sweep

        # Quick mode halves the seeds but keeps txns at 60: per-cluster
        # fixed costs stay amortized the same way, so the events/sec RATE
        # remains comparable to the full preset (which the --check gate
        # relies on).
        run_seed_sweep(range(42, 46 if quick else 50), txns=60)

    return run


def _preset_serial(quick: bool) -> Callable[[], None]:
    def run() -> None:
        from repro.experiments.exp2 import run_figure1

        run_figure1(seed=42)

    return run


PRESETS: dict[str, Callable[[bool], Callable[[], None]]] = {
    "concurrent": _preset_concurrent,
    "chaos": _preset_chaos,
    "serial": _preset_serial,
}


def run_simcore_bench(quick: bool = False) -> dict[str, Any]:
    """Time every preset; return the ``BENCH_simcore.json`` document."""
    # Best-of-N even in quick mode: single-shot walls on the sub-100 ms
    # quick presets swing +-30% under ambient load, which is exactly the
    # regression-gate tolerance — best-of-3 pulls both sides of a
    # write-then-check comparison toward the same floor.
    reps = 3
    presets: dict[str, Any] = {}
    for name, make in PRESETS.items():
        thunk = make(quick)
        with _count_fired() as counter:
            thunk()  # warm: imports, bytecode/attribute caches
        events = counter["fired"]
        best = float("inf")
        for _ in range(reps):
            start = time.perf_counter()
            thunk()
            best = min(best, time.perf_counter() - start)
        eps = events / best if best > 0 else 0.0
        baseline = BASELINE_EVENTS_PER_SEC[name]
        presets[name] = {
            "events": events,
            "wall_s": round(best, 6),
            "events_per_sec": round(eps, 1),
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "baseline_events_per_sec": baseline,
            "speedup": round(eps / baseline, 2),
        }
    return {
        "schema": BENCH_SCHEMA,
        "kind": "simcore",
        "quick": quick,
        "presets": presets,
    }


def run_sweep_bench(
    quick: bool = False, jobs: Optional[int] = None
) -> dict[str, Any]:
    """Serial vs. parallel sweep timing; the ``BENCH_sweep.json`` document.

    Also re-asserts the determinism contract: the parallel report must
    equal the serial one (``identical``), every benchmark run.

    Two parallel walls are reported: **cold** (first sweep in the
    process — includes creating the persistent pool and warming its
    workers) and **warm** (a second sweep reusing the same pool, the
    steady-state number every subsequent sweep in a process sees).  The
    headline ``parallel_wall_s``/``speedup`` are the warm measurements —
    the committed 0.95x that motivated the persistent pool was a
    cold-start artifact on a sub-200 ms workload.  ``cpus`` records the
    cores the kernel granted; on a 1-core box a >1x speedup is
    physically impossible.  The speedup is recorded, not gated.
    """
    import os

    from repro.chaos import run_seed_sweep
    from repro.perf.pool import shutdown_pool

    if jobs is None:
        # At least 2, even on a single-core box: the point of this
        # benchmark is as much the identical-to-serial contract as the
        # wall-clock, and jobs=1 would take the serial path entirely.
        jobs = max(2, min(4, os.cpu_count() or 1))
    # Big enough that dispatch overhead cannot dominate: the full sweep
    # runs for multiple seconds, the quick one for around a second.
    seeds = list(range(42, 50 if quick else 58))
    txns = 40 if quick else 80
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1

    start = time.perf_counter()
    serial = run_seed_sweep(seeds, txns=txns)
    serial_wall = time.perf_counter() - start

    # Cold: pool creation + worker warmup charged to this sweep.
    shutdown_pool()
    start = time.perf_counter()
    parallel_cold = run_seed_sweep(seeds, txns=txns, jobs=jobs)
    cold_wall = time.perf_counter() - start

    # Warm: the same pool, reused — what every later sweep pays.
    start = time.perf_counter()
    parallel_warm = run_seed_sweep(seeds, txns=txns, jobs=jobs)
    warm_wall = time.perf_counter() - start

    # Leave the process as we found it: live forked workers keep the
    # parent paying copy-on-write faults on every dirtied page, which
    # taxes any measurement that runs after this one in-process.
    shutdown_pool()

    return {
        "schema": BENCH_SCHEMA,
        "kind": "sweep",
        "quick": quick,
        "seeds": seeds,
        "txns": txns,
        "jobs": jobs,
        "cpus": cpus,
        "serial_wall_s": round(serial_wall, 6),
        "parallel_wall_s": round(warm_wall, 6),
        "parallel_cold_wall_s": round(cold_wall, 6),
        "parallel_warm_wall_s": round(warm_wall, 6),
        "speedup": round(serial_wall / warm_wall, 2) if warm_wall > 0 else 0.0,
        "cold_speedup": round(serial_wall / cold_wall, 2) if cold_wall > 0 else 0.0,
        "identical": serial.results == parallel_cold.results
        and serial.results == parallel_warm.results,
    }


# -- validation and the CI gate ---------------------------------------------


def validate_simcore_doc(doc: Any) -> list[str]:
    """Schema problems in a ``BENCH_simcore.json`` document ([] if none)."""
    problems = _validate_header(doc, "simcore")
    if problems:
        return problems
    presets = doc.get("presets")
    if not isinstance(presets, dict):
        return ["presets: expected an object"]
    for name in PRESETS:
        entry = presets.get(name)
        if not isinstance(entry, dict):
            problems.append(f"presets.{name}: missing")
            continue
        for fieldname in _PRESET_FIELDS:
            value = entry.get(fieldname)
            if not isinstance(value, (int, float)) or value <= 0:
                problems.append(
                    f"presets.{name}.{fieldname}: expected a positive number,"
                    f" got {value!r}"
                )
    return problems


def validate_sweep_doc(doc: Any) -> list[str]:
    """Schema problems in a ``BENCH_sweep.json`` document ([] if none)."""
    problems = _validate_header(doc, "sweep")
    if problems:
        return problems
    if not isinstance(doc.get("seeds"), list) or not doc["seeds"]:
        problems.append("seeds: expected a non-empty list")
    for fieldname in ("txns", "jobs", "serial_wall_s", "parallel_wall_s"):
        value = doc.get(fieldname)
        if not isinstance(value, (int, float)) or value <= 0:
            problems.append(
                f"{fieldname}: expected a positive number, got {value!r}"
            )
    if doc.get("identical") is not True:
        problems.append("identical: parallel sweep diverged from serial")
    # Warm/cold walls and cpus are additive (schema stays repro.bench/1);
    # validate them only when present so older artifacts still read.
    for fieldname in ("parallel_cold_wall_s", "parallel_warm_wall_s", "cpus"):
        value = doc.get(fieldname)
        if value is not None and (
            not isinstance(value, (int, float)) or value <= 0
        ):
            problems.append(
                f"{fieldname}: expected a positive number, got {value!r}"
            )
    return problems


def _validate_header(doc: Any, kind: str) -> list[str]:
    if not isinstance(doc, dict):
        return ["expected a JSON object"]
    problems = []
    if doc.get("schema") != BENCH_SCHEMA:
        problems.append(
            f"schema: expected {BENCH_SCHEMA!r}, got {doc.get('schema')!r}"
        )
    if doc.get("kind") != kind:
        problems.append(f"kind: expected {kind!r}, got {doc.get('kind')!r}")
    return problems


def check_regression(
    committed: dict[str, Any],
    fresh: dict[str, Any],
    tolerance: float = 0.30,
) -> list[str]:
    """Presets where ``fresh`` fell > ``tolerance`` below ``committed``.

    Compares events/sec *rates*, which are comparable between quick and
    full workloads; the tolerance absorbs machine and size noise.
    """
    problems = []
    for name, entry in committed.get("presets", {}).items():
        fresh_entry = fresh.get("presets", {}).get(name)
        if fresh_entry is None:
            problems.append(
                f"preset '{name}': metric events_per_sec missing from "
                f"fresh measurement"
            )
            continue
        committed_eps = entry["events_per_sec"]
        fresh_eps = fresh_entry["events_per_sec"]
        floor = committed_eps * (1.0 - tolerance)
        if fresh_eps < floor:
            drop = 1.0 - fresh_eps / committed_eps
            problems.append(
                f"preset '{name}': metric events_per_sec regressed "
                f"{drop:.0%} (fresh {fresh_eps:.0f} vs committed "
                f"{committed_eps:.0f}, tolerance {tolerance:.0%})"
            )
    return problems


def render_bench_table(simcore: dict[str, Any], sweep: dict[str, Any]) -> str:
    """Human-readable summary of both benchmark documents."""
    from repro.experiments.report import format_table

    rows = [
        (
            name,
            f"{entry['events']}",
            f"{entry['wall_s'] * 1000:.1f} ms",
            f"{entry['events_per_sec']:,.0f}",
            f"{entry['baseline_events_per_sec']:,.0f}",
            f"{entry['speedup']:.2f}x",
        )
        for name, entry in simcore["presets"].items()
    ]
    lines = [
        format_table(
            ["preset", "events", "wall", "events/sec", "baseline", "speedup"],
            rows,
        ),
        "",
        f"sweep ({len(sweep['seeds'])} seeds x {sweep['txns']} txns, "
        f"cpus={sweep.get('cpus', '?')}): "
        f"serial {sweep['serial_wall_s'] * 1000:.0f} ms, "
        f"parallel(jobs={sweep['jobs']}) "
        f"warm {sweep['parallel_wall_s'] * 1000:.0f} ms "
        f"({sweep['speedup']:.2f}x)"
        + (
            f", cold {sweep['parallel_cold_wall_s'] * 1000:.0f} ms "
            f"({sweep.get('cold_speedup', 0.0):.2f}x)"
            if "parallel_cold_wall_s" in sweep
            else ""
        )
        + f", identical={'yes' if sweep['identical'] else 'NO'}",
    ]
    return "\n".join(lines)


def write_bench_files(
    simcore: dict[str, Any],
    sweep: dict[str, Any],
    simcore_path: str = "BENCH_simcore.json",
    sweep_path: str = "BENCH_sweep.json",
) -> None:
    """Write both artifacts (sorted keys off: insertion order is the schema
    order, which keeps diffs readable)."""
    for path, doc in ((simcore_path, simcore), (sweep_path, sweep)):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
