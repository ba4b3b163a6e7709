"""Scenario scripting: the managing site's experiment scripts.

The paper's experiments are timelines of the form "before transaction N,
fail site k / bring site k up", plus a rule for where transactions are
submitted.  A :class:`Scenario` captures exactly that: per-sequence-number
actions, a submission policy, and stop conditions (a fixed count, possibly
extended "until site k is completely recovered" as in Experiment 2).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError
from repro.sim.rng import RandomStream
from repro.workload.base import WorkloadGenerator


# -- actions ---------------------------------------------------------------------


@dataclass(slots=True, frozen=True)
class FailSite:
    """Cause ``site_id`` to fail (paper: a message telling the site to stop
    participating in any further system actions)."""

    site_id: int


@dataclass(slots=True, frozen=True)
class RecoverSite:
    """Initiate recovery of ``site_id`` (the type-1 control transaction
    runs before the next transaction is submitted)."""

    site_id: int


@dataclass(slots=True, frozen=True)
class PartitionNetwork:
    """Split the network into the given groups of sites."""

    groups: tuple[tuple[int, ...], ...]


@dataclass(slots=True, frozen=True)
class HealNetwork:
    """Remove any network partition."""


Action = FailSite | RecoverSite | PartitionNetwork | HealNetwork


# -- submission policies ------------------------------------------------------------


class SubmissionPolicy(abc.ABC):
    """Chooses the coordinating site for each transaction."""

    @abc.abstractmethod
    def choose(self, seq: int, up_sites: list[int], rng: RandomStream) -> int:
        """The coordinator for transaction ``seq`` among ``up_sites``."""


class FixedSite(SubmissionPolicy):
    """Always the same site (must be up)."""

    def __init__(self, site_id: int) -> None:
        self.site_id = site_id

    def choose(self, seq: int, up_sites: list[int], rng: RandomStream) -> int:
        if self.site_id not in up_sites:
            raise ConfigurationError(
                f"fixed submission site {self.site_id} is down (txn {seq})"
            )
        return self.site_id


class RoundRobin(SubmissionPolicy):
    """Cycle through the currently-up sites."""

    def __init__(self) -> None:
        self._counter = 0

    def choose(self, seq: int, up_sites: list[int], rng: RandomStream) -> int:
        site = up_sites[self._counter % len(up_sites)]
        self._counter += 1
        return site


class UniformRandom(SubmissionPolicy):
    """Uniformly random among the currently-up sites."""

    def choose(self, seq: int, up_sites: list[int], rng: RandomStream) -> int:
        return rng.choice(up_sites)


class Weighted(SubmissionPolicy):
    """Random among up sites, weighted; weights renormalize over whoever is
    up (a down site's share flows to the survivors)."""

    def __init__(self, weights: dict[int, float]) -> None:
        if not weights or any(w < 0 for w in weights.values()):
            raise ConfigurationError(f"bad weights: {weights}")
        self.weights = dict(weights)

    def choose(self, seq: int, up_sites: list[int], rng: RandomStream) -> int:
        eligible = [s for s in up_sites if self.weights.get(s, 0.0) > 0.0]
        if not eligible:
            eligible = list(up_sites)
            live_weights = [1.0] * len(eligible)
        else:
            live_weights = [self.weights[s] for s in eligible]
        total = sum(live_weights)
        point = rng.random() * total
        acc = 0.0
        for site, weight in zip(eligible, live_weights):
            acc += weight
            if point <= acc:
                return site
        return eligible[-1]


# -- the scenario -------------------------------------------------------------------


@dataclass(slots=True)
class Scenario:
    """A complete experiment script.

    ``actions[n]`` runs *before* transaction ``n`` (1-based), matching the
    paper's "Before transaction 101, site 0 was brought up".  Without a
    ``workload`` the run submits its configuration's
    :meth:`~repro.system.config.SystemConfig.paper_workload`.
    """

    txn_count: int
    workload: Optional[WorkloadGenerator] = None
    policy: SubmissionPolicy = field(default_factory=UniformRandom)
    actions: dict[int, list[Action]] = field(default_factory=dict)
    # After txn_count, keep going until these sites have no fail-locks
    # (Experiment 2 ran "until the recovering site had completely
    # recovered").  Empty means stop exactly at txn_count.
    until_recovered: tuple[int, ...] = ()
    max_txns: int = 100_000

    def add_action(self, before_txn: int, action: Action) -> "Scenario":
        """Register ``action`` to run before transaction ``before_txn``."""
        if before_txn < 1:
            raise ConfigurationError(f"before_txn must be >= 1: {before_txn}")
        self.actions.setdefault(before_txn, []).append(action)
        return self

    def validate(self) -> None:
        if self.txn_count < 0:
            raise ConfigurationError(f"txn_count must be >= 0: {self.txn_count}")
        if self.max_txns < self.txn_count:
            raise ConfigurationError(
                f"max_txns ({self.max_txns}) < txn_count ({self.txn_count})"
            )
