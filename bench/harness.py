"""Measuring loop, order statistics and the bound comparison.

Nothing here knows about the simulator: the loop times any ``run(block)``
callable that returns an ``Outcome``, and the comparison works on plain
result documents, so the harness tests run on synthetic inputs and never
assert on wall-clock.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import subprocess
import time
import traceback
from dataclasses import dataclass, field

# (name, unit, better, bound): what a user of the simulator pays.  The
# bound is the share of the parent's median a later change may lose.
# Times are in reference seconds (see ``kernel``).
END_TO_END = (
    ("work_per_ref_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
)

MIN_REPS = 5
SETUP_PROBES = 7


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_by(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative: better)."""
    if not first:
        return 0.0 if not second else float("inf")
    change = (second - first) / abs(first)
    return -change if better == "higher" else change


# The calibration kernel takes this long on the 2-cpu reference box in its
# usual state, so a reference second is about a second there.
KERNEL_NOMINAL_S = 0.050


def kernel(steps: int = 60_000) -> float:
    """Seconds a fixed event-loop-shaped pure-Python computation takes now.

    The shared box's speed drifts by 10-30 % over tens of seconds; timing
    this kernel beside every repetition measures that drift, and walls
    are reported in *reference seconds*: wall x nominal / kernel time.
    Heap, dict, list and small-object traffic like the simulator's, and
    nothing from the simulator itself, so no change to it can move this.
    """
    start = time.perf_counter()
    heap: list[tuple[int, int, list[int]]] = []
    table: dict[int, list[int]] = {}
    x = 1
    for seq in range(steps):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x & 0xFFFF, seq, [seq, x]))
        if len(heap) > 64:
            _due, _seq, event = heapq.heappop(heap)
            bucket = table.setdefault(event[1] & 1023, [])
            bucket.append(event[0])
            if len(bucket) > 8:
                del bucket[:4]
    return time.perf_counter() - start


def reference_seconds(wall_s: float, kernel_before_s: float, kernel_after_s: float) -> float:
    """``wall_s`` rescaled to the reference box's speed."""
    return wall_s * 2 * KERNEL_NOMINAL_S / (kernel_before_s + kernel_after_s)


@dataclass(slots=True)
class Reps:
    """A warm-up repetition of block 0, then timed blocks 0, 1, 2, ..."""

    warmup: object = None           # the warm-up's Outcome
    warmup_wall_s: float = 0.0
    walls_s: list[float] = field(default_factory=list)
    ref_walls_s: list[float] = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def timed(run, *args):
    """``(outcome, wall_s)`` of one call; GC stays on, as for users."""
    gc.collect()
    start = time.perf_counter()
    outcome = run(*args)
    return outcome, time.perf_counter() - start


def repeat(run, seconds: float, min_reps: int = MIN_REPS) -> Reps:
    """Warm up on block 0, then time blocks 0, 1, 2, ... for ``seconds``.

    ``run(block)`` does one repetition on the inputs of that block; every
    block has its own seeds, so one run of the benchmark averages over as
    many inputs as it has repetitions.  Block 0 runs twice (warm-up and
    first timed repetition), which is the determinism check.  A
    repetition that raises is a failed output check, not a crash of the
    benchmark: its traceback is kept and the loop stops.
    """
    reps = Reps()
    try:
        reps.warmup, reps.warmup_wall_s = timed(run, 0)
        after = kernel()
        while len(reps.walls_s) < min_reps or sum(reps.walls_s) < seconds:
            before = after
            outcome, wall = timed(run, len(reps.walls_s))
            after = kernel()
            reps.outcomes.append(outcome)
            reps.walls_s.append(wall)
            reps.ref_walls_s.append(reference_seconds(wall, before, after))
    except Exception:  # the boundary that turns a broken run into a verdict
        reps.problems.append(traceback.format_exc())
    return reps


def probe_setup(command: list[str], probes: int = SETUP_PROBES) -> list[float]:
    """Reference seconds of ``probes`` fresh processes that import the
    simulator, build the workload's inputs and exit: what a user waits
    for before the first transaction runs."""
    walls = []
    after = kernel()
    for _ in range(probes):
        before = after
        start = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - start
        after = kernel()
        walls.append(reference_seconds(wall, before, after))
    return walls


def metric(values: list[float], unit: str) -> dict:
    """A reported metric: the median of ``values`` with its quartiles."""
    q1, median, q3 = quartiles(values)
    return {"value": median, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}


def verdict(reps: Reps, pinned: str | None) -> tuple[int, int, list[str]]:
    """``(attempted, failed, problems)`` over the timed repetitions.

    Block 0 must give the same digest on both of its runs, and ``pinned``
    when the seed has one; either miss fails every unit of that block.
    """
    problems = list(reps.problems)
    attempted = sum(o.work for o in reps.outcomes)
    failed = sum(o.failed for o in reps.outcomes)
    for outcome in reps.outcomes:
        problems += outcome.problems
    if reps.outcomes:
        first = reps.outcomes[0]
        misses = []
        if first.digest != reps.warmup.digest:
            misses.append(f"not deterministic: digest {reps.warmup.digest} on the "
                          f"warm-up, {first.digest} on the same inputs again")
        if pinned is not None and first.digest != pinned:
            misses.append(f"digest {first.digest} differs from pinned {pinned}")
        if misses:
            problems += misses
            failed += first.work - first.failed
    if reps.problems:  # a repetition raised: count it as wholly failed
        lost = reps.outcomes[-1].work if reps.outcomes else 1
        attempted += lost
        failed += lost
    return attempted, failed, list(dict.fromkeys(problems))


def agree(first: dict, second: dict, exact: list[str]) -> list[dict]:
    """Compare two sets of results: ``{workload: {metric: {"value": v}}}``.

    End-to-end metrics must not differ, either way, by more than their
    bound; the names in ``exact`` (where present) must be equal.
    """
    rows = []
    for workload in first:
        for name, _unit, better, bound in END_TO_END:
            a = first[workload][name]["value"]
            b = second[workload][name]["value"]
            diff = abs(worse_by(a, b, better))
            rows.append({
                "workload": workload, "metric": name, "first": a, "second": b,
                "diff": diff, "bound": bound, "ok": diff <= bound,
            })
        for name in exact:
            if name in first[workload]:
                a = first[workload][name]["value"]
                b = second[workload][name]["value"]
                rows.append({
                    "workload": workload, "metric": name, "first": a,
                    "second": b, "diff": 0.0 if a == b else float("inf"),
                    "bound": 0.0, "ok": a == b,
                })
    return rows
