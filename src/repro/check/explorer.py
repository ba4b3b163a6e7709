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
* **Look-ahead** — with ``jobs > 1``, whenever the search runs a
  prefix it popped, pool workers run the prefixes then on top of the
  frontier beside it; the search takes a worker's run when it pops that
  prefix, and deals nothing then, since that run's children are not yet
  on the frontier.  ``jobs`` decides the wall time only.  Workers fork
  once and keep the code they forked with, so a search whose
  ``run_schedule`` has been replaced (a test's stub, a profiler's
  wrapper) runs every prefix itself.

Fault/fate alternatives are expanded before order alternatives (the
bug-dense part of the space first); within a priority class, shallower
branch points first.  The whole search is a pure function of
(config, budgets): same inputs, same visited-state count, same
counterexample — byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from repro.check.choices import Decision
from repro.check.runner import CheckConfig, CheckRunResult, run_schedule
from repro.errors import CheckError
from repro.metrics.records import ViolationRecord
from repro.perf.pool import Dealer, resolve_jobs

__all__ = ["ExplorationStats", "ExplorationResult", "explore", "run_prefix"]

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
    # Every branch-point fingerprint expanded by the search, sorted.
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


# The code of the ``run_schedule`` this module imported: while the name
# still runs it, a worker's run of a prefix is the run the search makes.
# (The code, not the function: a patch that replaces every alias of the
# function would replace this one too.)
_RUN_SCHEDULE_CODE = run_schedule.__code__


def run_prefix(config: CheckConfig, prefix: list[int], max_depth: int) -> CheckRunResult:
    """The run the search makes of ``prefix``: fingerprinted on its window.

    A pure function of its arguments, which is what lets a pool worker
    make it ahead of time (:func:`explore` deals it as
    ``partial(run_prefix, config, max_depth=max_depth)``).
    """
    return run_schedule(config, prefix, fingerprint_at=_read_window(prefix, max_depth))


def _deal_ahead(dealer: Dealer, frontier: list[list[int]], spare: int) -> None:
    """Deal the entries on top of ``frontier`` that no worker has started
    to the idle workers, just before the search runs a popped prefix
    itself (never beside a taken run: see the module docstring).

    ``spare`` is how many more runs the budget allows after the one the
    search is about to make: the ``k``-th entry from the top is popped no
    sooner than ``k`` runs from now, so only the top ``spare`` can still
    be needed.  A run is a pure function of ``(config, prefix,
    max_depth)``, so the reply taken when its prefix is popped is the run
    the search would have made itself; one never taken is dropped.
    """
    if not (frontier and spare):
        return
    idle = dealer.idle()
    for vector in reversed(frontier[-spare:]):
        if not idle:
            return
        key = tuple(vector)
        if key not in dealer:
            dealer.deal(key, vector)
            idle -= 1


def _check_budget(max_runs: int, max_depth: int) -> None:
    """A search that may run no schedule, or read no choice point, checks
    nothing: refused."""
    if max_runs < 1:
        raise CheckError(f"max_runs must be >= 1: {max_runs}")
    if max_depth < 0:
        raise CheckError(f"max_depth must be >= 0: {max_depth}")


def explore(
    config: CheckConfig,
    *,
    max_runs: int = 200,
    max_depth: int = 40,
    stop_on_violation: bool = True,
    sleep_sets: bool = True,
    jobs: Optional[int] = None,
) -> ExplorationResult:
    """Bounded-DFS the schedule space of ``config``.

    Returns when a violation is found (unless ``stop_on_violation`` is
    False), the frontier empties (the bounded space is exhausted), or
    ``max_runs`` re-executions are spent.  ``jobs`` (``None``: every CPU
    this process may run on) decides only the wall time: while the
    search runs a popped prefix itself, up to ``jobs - 1`` pool workers
    (never more than ``max_runs - 1``) run the next frontier prefixes
    (:func:`_deal_ahead`); a popped prefix a worker ran is taken, not
    dealt beside.  The result is the ``jobs=1`` one, byte for byte.
    With ``run_schedule`` replaced the search runs in-process whatever
    ``jobs`` is.
    """
    _check_budget(max_runs, max_depth)
    stats = ExplorationStats()
    result = ExplorationResult(config=config, stats=stats)
    expanded: set[str] = set()
    workers = min(resolve_jobs(jobs), max_runs) - 1
    if getattr(run_schedule, "__code__", None) is not _RUN_SCHEDULE_CODE:
        workers = 0
    run_ahead = partial(run_prefix, config, max_depth=max_depth)
    dealer = Dealer(run_ahead, workers) if workers > 0 else None
    # LIFO frontier of decision-vector prefixes; starts at the root (the
    # unperturbed run).
    frontier: list[list[int]] = [[]]
    while frontier:
        if stats.runs >= max_runs:
            stats.budget_exhausted = True
            break
        prefix = frontier.pop()
        key = tuple(prefix)
        if dealer is not None and key in dealer:
            run = dealer.take(key)
        else:
            if dealer is not None:
                _deal_ahead(dealer, frontier, max_runs - stats.runs - 1)
            run = run_prefix(config, prefix, max_depth)
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
    stats.states = len(expanded)
    result.fingerprints = tuple(sorted(expanded))
    return result
