"""Bounded DFS over the schedule space, with pruning.

Stateless-search style: the explorer holds no simulator state, only a
stack of decision-vector prefixes.  Popping a prefix re-executes the
whole run (cheap — these are small configurations by design), then
expands every *new* branch point the run encountered past its prefix:

* **Visited-state pruning** — a :class:`Decision` can carry a
  fingerprint of (cluster state, choice kind, candidate labels).  Two
  runs that arrive at the same fingerprint face the same subtree, so the
  alternatives at it are expanded once, ever.  Fingerprints are taken
  on demand: a decision carries one iff the caller asked for that index,
  and the run steered by ``prefix`` is asked for exactly the indices
  :func:`_read_window` names, ``[len(prefix), max_depth)`` — a branch
  point inside the steering prefix was fingerprinted (and expanded) by
  the ancestor run that opened it, and one at or past ``max_depth`` is
  never opened.  The explorer is the only reader; every other caller of
  ``run_schedule`` takes none.
* **Sleep-set-style pruning** (heuristic, on by default) — at an order
  point, the alternative "fire the delivery to site X first" is skipped
  when every candidate ahead of it is a delivery to a *different* site:
  same-instant deliveries to distinct sites commute (distinct endpoint
  state, distinct channels), so the permuted interleaving reaches a
  state the default order also reaches.  It is labelled a heuristic
  because downstream tie-break *sequence numbers* still differ; disable
  with ``sleep_sets=False`` (or ``--no-sleep-sets``) to search the
  unpruned space.
* **Budgets** — ``max_runs`` bounds total re-executions, ``max_depth``
  bounds how deep in the decision sequence new branches are opened.
  ``budget_exhausted`` in the stats says the frontier was not empty when
  the explorer stopped.

Fault/fate alternatives are expanded before order alternatives (the
bug-dense part of the space first); within a priority class, shallower
branch points first.  The whole search is a pure function of
(config, budgets): same inputs, same visited-state count, same
counterexample — byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.check.choices import Decision
from repro.check.runner import CheckConfig, CheckRunResult, run_schedule
from repro.errors import CheckError
from repro.metrics.records import ViolationRecord

__all__ = ["ExplorationStats", "ExplorationResult", "explore", "explore_parallel"]

# Expansion priority by choice kind: crash/drop placements find protocol
# bugs far more often than event permutations, so they go first.
_KIND_PRIORITY = {"fault": 0, "fate": 0, "order": 1}


@dataclass(slots=True)
class ExplorationStats:
    """Search-effort accounting (deterministic per config + budgets)."""

    runs: int = 0
    states: int = 0          # distinct branch-point fingerprints expanded
    pruned_visited: int = 0  # branch points skipped: fingerprint seen
    pruned_sleep: int = 0    # alternatives skipped: commuting deliveries
    violations_found: int = 0
    budget_exhausted: bool = False


@dataclass(slots=True)
class ExplorationResult:
    """What a bounded exploration established."""

    config: CheckConfig
    stats: ExplorationStats = field(default_factory=ExplorationStats)
    # First violating schedule found (canonical executed vector), if any.
    counterexample: Optional[list[int]] = None
    violation: Optional[ViolationRecord] = None
    counterexample_run: Optional[CheckRunResult] = None
    # Every branch-point fingerprint expanded by the search, sorted.  For
    # a parallel exploration this is the deterministic merge of the
    # workers' sets (input-order union — independent of worker timing).
    fingerprints: tuple[str, ...] = ()

    @property
    def found(self) -> bool:
        return self.counterexample is not None


def _sleep_prunable(decision: Decision, alt: int) -> bool:
    """Whether alternative ``alt`` commutes with every earlier candidate."""
    if decision.kind != "order" or len(decision.dep_keys) != decision.arity:
        return False
    key = decision.dep_keys[alt]
    if key[0] != "deliver":
        return False
    dst = key[2]
    for earlier in decision.dep_keys[:alt]:
        if earlier[0] != "deliver" or earlier[2] == dst:
            return False
    return True


def _read_window(prefix: list[int], max_depth: int) -> range:
    """Decision indices the search reads from the run steered by ``prefix``.

    The one definition shared by the request (``run_schedule``'s
    ``fingerprint_at``) and the reader (:func:`_expand_children`).
    """
    return range(len(prefix), max_depth)


def _expand_children(
    run: CheckRunResult,
    prefix: list[int],
    expanded: set[str],
    stats: ExplorationStats,
    *,
    max_depth: int,
    sleep_sets: bool,
) -> list[tuple[int, int, list[int]]]:
    """New branch alternatives below ``prefix``, as (priority, depth, vector).

    Decisions before the window are fixed by the prefix and were expanded
    by an ancestor.  A decision inside it without a fingerprint means the
    run was not asked for this window; pruning on ``""`` would silently
    collapse every later branch point onto the first, so it raises.
    """
    children: list[tuple[int, int, list[int]]] = []
    window = _read_window(prefix, max_depth)
    for index in range(window.start, min(window.stop, len(run.decisions))):
        decision = run.decisions[index]
        if not decision.fingerprint:
            raise CheckError(
                f"decision {index} of the run steered by {prefix} carries no "
                f"fingerprint; run_schedule was not asked for {window}"
            )
        if decision.arity < 2:
            continue
        if decision.fingerprint in expanded:
            stats.pruned_visited += 1
            continue
        expanded.add(decision.fingerprint)
        base = [d.chosen for d in run.decisions[:index]]
        priority = _KIND_PRIORITY.get(decision.kind, 1)
        for alt in range(1, decision.arity):
            if sleep_sets and _sleep_prunable(decision, alt):
                stats.pruned_sleep += 1
                continue
            children.append((priority, index, base + [alt]))
    return children


def _search(
    config: CheckConfig,
    frontier: list[list[int]],
    expanded: set[str],
    stats: ExplorationStats,
    result: ExplorationResult,
    *,
    max_runs: int,
    max_depth: int,
    stop_on_violation: bool,
    sleep_sets: bool,
) -> None:
    """The bounded-DFS loop shared by serial and per-worker exploration.

    Mutates ``frontier``, ``expanded``, ``stats``, and ``result`` in
    place; a pure function of its arguments otherwise (same inputs, same
    visited-state count, same counterexample — byte for byte).
    """
    while frontier:
        if stats.runs >= max_runs:
            stats.budget_exhausted = True
            break
        prefix = frontier.pop()
        run = run_schedule(
            config, prefix, fingerprint_at=_read_window(prefix, max_depth)
        )
        stats.runs += 1

        if run.violations:
            stats.violations_found += 1
            if result.counterexample is None:
                result.counterexample = run.chosen
                result.violation = run.violations[0]
                result.counterexample_run = run
            if stop_on_violation:
                break
            continue  # don't open branches below a violating schedule

        children = _expand_children(
            run, prefix, expanded, stats, max_depth=max_depth, sleep_sets=sleep_sets
        )
        # Highest-priority, shallowest child on top of the LIFO frontier.
        children.sort(key=lambda c: (c[0], c[1], c[2]))
        frontier.extend(vec for _p, _i, vec in reversed(children))


def _check_budget(max_runs: int) -> None:
    """A search that may run no schedule checks nothing: refused."""
    if max_runs < 1:
        raise CheckError(f"max_runs must be >= 1: {max_runs}")


def explore(
    config: CheckConfig,
    *,
    max_runs: int = 200,
    max_depth: int = 40,
    stop_on_violation: bool = True,
    sleep_sets: bool = True,
) -> ExplorationResult:
    """Bounded-DFS the schedule space of ``config``.

    Returns when a violation is found (unless ``stop_on_violation`` is
    False), the frontier empties (the bounded space is exhausted), or
    ``max_runs`` re-executions are spent.
    """
    _check_budget(max_runs)
    stats = ExplorationStats()
    result = ExplorationResult(config=config, stats=stats)
    expanded: set[str] = set()
    # LIFO frontier of decision-vector prefixes; starts at the root (the
    # unperturbed run).
    frontier: list[list[int]] = [[]]
    _search(
        config,
        frontier,
        expanded,
        stats,
        result,
        max_runs=max_runs,
        max_depth=max_depth,
        stop_on_violation=stop_on_violation,
        sleep_sets=sleep_sets,
    )
    stats.states = len(expanded)
    result.fingerprints = tuple(sorted(expanded))
    return result


def _explore_worker(shared: tuple, prefixes: list[list[int]]) -> tuple:
    """One worker's share of a parallel exploration (runs in the pool).

    ``shared`` is ``(config, max_runs, max_depth, sleep_sets,
    stop_on_violation, preexpanded)`` where ``preexpanded`` holds the
    fingerprints the parent expanded at the root — seeding the visited
    set with them keeps workers from re-opening root branch points.
    Returns plain data only: a stats tuple, the sorted fingerprints this
    worker newly expanded, and the counterexample (vector + violation)
    if it found one.
    """
    config, max_runs, max_depth, sleep_sets, stop_on_violation, preexpanded = shared
    stats = ExplorationStats()
    result = ExplorationResult(config=config, stats=stats)
    expanded = set(preexpanded)
    # Reversed so the LIFO pop visits this worker's prefixes in the
    # priority order the parent assigned them.
    frontier = [list(prefix) for prefix in reversed(prefixes)]
    _search(
        config,
        frontier,
        expanded,
        stats,
        result,
        max_runs=max_runs,
        max_depth=max_depth,
        stop_on_violation=stop_on_violation,
        sleep_sets=sleep_sets,
    )
    new_fingerprints = sorted(expanded.difference(preexpanded))
    stats_tuple = (
        stats.runs,
        stats.pruned_visited,
        stats.pruned_sleep,
        stats.violations_found,
        stats.budget_exhausted,
    )
    return (stats_tuple, new_fingerprints, result.counterexample, result.violation)


def explore_parallel(
    config: CheckConfig,
    *,
    max_runs: int = 200,
    max_depth: int = 40,
    stop_on_violation: bool = True,
    sleep_sets: bool = True,
    jobs: int = 2,
) -> ExplorationResult:
    """Frontier-parallel bounded exploration across the worker pool.

    The parent executes the root schedule, expands its branch points,
    and deals the resulting subtree prefixes round-robin to ``jobs``
    workers — *disjoint* subtrees by construction, since each prefix
    fixes a different first divergence.  Workers search independently
    (no shared visited set, so cross-worker duplicates are possible —
    the price of zero coordination) and return plain data; the parent
    merges in **input order**: fingerprint sets unioned, stats summed,
    and the winning counterexample taken from the lowest-numbered worker
    that found one.  The merged result is therefore a pure function of
    (config, budgets, jobs) no matter how the OS schedules the workers.

    Note the search *frontier policy* differs from serial ``explore``
    (serial shares one visited set and one LIFO; workers do not), so
    stats and the specific counterexample may legitimately differ from a
    serial run with the same budgets — but not between two parallel runs
    with the same ``jobs``.
    """
    from repro.perf.pool import run_chunked

    _check_budget(max_runs)
    stats = ExplorationStats()
    result = ExplorationResult(config=config, stats=stats)
    root = run_schedule(config, [], fingerprint_at=_read_window([], max_depth))
    stats.runs = 1
    if root.violations:
        stats.violations_found = 1
        result.counterexample = root.chosen
        result.violation = root.violations[0]
        result.counterexample_run = root
        stats.states = 0
        return result

    expanded: set[str] = set()
    children = _expand_children(
        root, [], expanded, stats, max_depth=max_depth, sleep_sets=sleep_sets
    )
    children.sort(key=lambda c: (c[0], c[1], c[2]))
    prefixes = [vec for _p, _i, vec in children]
    if not prefixes:
        stats.states = len(expanded)
        result.fingerprints = tuple(sorted(expanded))
        return result

    jobs = max(1, min(jobs, len(prefixes)))
    # Round-robin in priority order: every worker gets a share of the
    # bug-dense (fault/fate) subtrees instead of worker 0 taking them all.
    slices = [prefixes[index::jobs] for index in range(jobs)]
    budget = max(1, -(-(max_runs - 1) // jobs))  # ceil split of what's left
    preexpanded = tuple(sorted(expanded))
    shared = (config, budget, max_depth, sleep_sets, stop_on_violation, preexpanded)
    outcomes = run_chunked(
        "check-prefixes", shared, slices, jobs=jobs, chunks_per_worker=1
    )

    merged = set(expanded)
    for stats_tuple, new_fingerprints, counterexample, violation in outcomes:
        runs, pruned_visited, pruned_sleep, violations_found, exhausted = stats_tuple
        stats.runs += runs
        stats.pruned_visited += pruned_visited
        stats.pruned_sleep += pruned_sleep
        stats.violations_found += violations_found
        stats.budget_exhausted = stats.budget_exhausted or exhausted
        merged.update(new_fingerprints)
        if counterexample is not None and result.counterexample is None:
            result.counterexample = counterexample
            result.violation = violation
    stats.states = len(merged)
    result.fingerprints = tuple(sorted(merged))
    if result.counterexample is not None:
        # Re-execute the winning schedule in-process: deterministic, and
        # it spares workers from shipping a rich CheckRunResult back.
        result.counterexample_run = run_schedule(config, result.counterexample)
    return result
