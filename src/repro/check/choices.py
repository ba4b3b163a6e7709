"""Choice points and decision vectors — the model checker's steering wheel.

The checker never forks the interpreter.  Every exploration step
re-executes the *whole* deterministic simulation from scratch, steered by
a **decision vector**: a list of small integers consumed in encounter
order, one per choice point.  Index ``i`` of the vector picks the
alternative at the ``i``-th choice point the run encounters; past the
end of the vector (or when the entry is out of range for the arity the
run actually presents) the run takes alternative ``0``, the *default* —
which is defined, at every choice kind, to be exactly what the
unmodified simulator would do.  Two consequences shape everything else:

* **Any vector is a well-defined run.**  Decision vectors are advice,
  not a script; a vector that no longer matches the run (because an
  earlier deviation changed which choice points exist downstream) simply
  degrades to defaults.  This is what makes delta-debugging sound: every
  candidate the shrinker proposes is executable.
* **The empty vector is the unperturbed run.**  With every hook
  installed and an empty vector, the simulation is event-for-event
  identical to a run with no hooks at all (pinned by
  ``tests/test_check_runner.py``).

A :class:`ChoiceController` carries the vector through one run and
records a :class:`Decision` for every choice point *consulted* (hooks
skip degenerate arity-1 points entirely, so vectors stay short).  The
recorded trace is the run's schedule: replaying the chosen values
reproduces it bit-for-bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

__all__ = ["Decision", "ChoiceController"]


@dataclass(slots=True, frozen=True)
class Decision:
    """One consulted choice point in one run.

    ``fingerprint`` hashes the cluster state *at the moment of the
    choice* together with the choice kind and candidate labels; the
    explorer uses it for visited-state pruning, so it must be stable
    across processes (labels carry no process-local ids).  A decision
    carries a fingerprint iff the caller asked for that index; everywhere
    else it is ``""``, which the explorer refuses to read.
    """

    kind: str                      # "order" | "fate" | "fault"
    arity: int
    chosen: int
    labels: tuple[str, ...]
    # One key per candidate describing what the alternative touches
    # (e.g. ("deliver", src, dst)); drives sleep-set-style pruning.
    dep_keys: tuple[tuple, ...] = ()
    fingerprint: str = ""


class ChoiceController:
    """Threads one decision vector through one simulation run.

    ``state_fn`` returns a stable digest of the cluster state.  It is
    called only at the choice points whose encounter index is in
    ``fingerprint_at``: those decisions carry a fingerprint of (state,
    kind, labels) — the identity of the choice point itself — and no
    other decision does.  The default asks for none.
    """

    def __init__(
        self,
        advice: Optional[Sequence[int]] = None,
        state_fn: Optional[Callable[[], str]] = None,
        fingerprint_at: range = range(0),
    ) -> None:
        self.advice: list[int] = list(advice or [])
        self.state_fn = state_fn
        self.fingerprint_at = fingerprint_at
        self.trace: list[Decision] = []

    def choose(
        self,
        kind: str,
        labels: Sequence[str],
        dep_keys: Iterable[tuple] = (),
    ) -> int:
        """Resolve one choice point; returns the index to take.

        The next unconsumed advice entry wins if it is in range for this
        arity; anything else (vector exhausted, stale advice) falls back
        to the default alternative 0.
        """
        arity = len(labels)
        index = len(self.trace)
        chosen = 0
        if index < len(self.advice):
            want = self.advice[index]
            if 0 <= want < arity:
                chosen = want
        fingerprint = ""
        if self.state_fn is not None and index in self.fingerprint_at:
            raw = "|".join((self.state_fn(), kind, "\x1f".join(labels)))
            fingerprint = hashlib.blake2b(
                raw.encode(), digest_size=12
            ).hexdigest()
        self.trace.append(
            Decision(
                kind=kind,
                arity=arity,
                chosen=chosen,
                labels=tuple(labels),
                dep_keys=tuple(dep_keys),
                fingerprint=fingerprint,
            )
        )
        return chosen

    def __repr__(self) -> str:
        return (
            f"ChoiceController(advice={self.advice}, "
            f"consulted={len(self.trace)})"
        )
