"""Time-varying load shapes and hot-key storms for soak runs.

The open-loop driver models a constant-rate Poisson source; production
traffic is not constant.  A :class:`LoadShape` gives the instantaneous
arrival rate ``rate_at(t_ms)`` (transactions per second) and soak runs
sample arrivals from the resulting non-homogeneous Poisson process via
Lewis–Shedler thinning (:func:`next_arrival_ms`) — all draws from the
injected seeded stream, so a seed fully determines the arrival sequence.

:class:`HotKeyStormWorkload` adds the item-popularity counterpart: Zipf
popularity whose *rank-to-item mapping* rotates every ``storm_every_ms``,
so a different key set is hot in each epoch.  The rotation is a pure
function of the epoch number (no RNG draws), which keeps the stream
consumption of a transaction independent of when it is generated.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from repro.errors import WorkloadError
from repro.sim.rng import RandomStream
from repro.txn.operations import WRITE_PROBABILITY, OpKind, Operation
from repro.workload.base import WorkloadGenerator
from repro.workload.zipf import ZipfGenerator

__all__ = [
    "LoadShape",
    "ConstantShape",
    "RampShape",
    "DiurnalShape",
    "FlashCrowdShape",
    "next_arrival_ms",
    "HotKeyStormWorkload",
    "DebitCreditWorkload",
]


class LoadShape(ABC):
    """Instantaneous arrival rate as a function of simulated time."""

    @abstractmethod
    def rate_at(self, t_ms: float) -> float:
        """Arrival rate in transactions/second at ``t_ms``."""

    @abstractmethod
    def peak_rate(self) -> float:
        """An upper bound on ``rate_at`` — the thinning envelope."""

    @abstractmethod
    def describe(self) -> str:
        """Short human-readable label for reports."""

    def mean_rate(self, horizon_ms: float) -> float:
        """Midpoint-rule average rate over ``[0, horizon_ms]`` in 256 steps
        — used to estimate how long draining a fixed transaction count
        takes."""
        if horizon_ms <= 0:
            return self.peak_rate()
        steps = 256
        step = horizon_ms / steps
        total = sum(self.rate_at((i + 0.5) * step) for i in range(steps))
        return total / steps


class ConstantShape(LoadShape):
    """The classic homogeneous Poisson source."""

    def __init__(self, rate_tps: float) -> None:
        if rate_tps <= 0:
            raise WorkloadError(f"rate must be positive: {rate_tps}")
        self.rate_tps = rate_tps

    def rate_at(self, t_ms: float) -> float:
        return self.rate_tps

    def peak_rate(self) -> float:
        return self.rate_tps

    def describe(self) -> str:
        return f"constant({self.rate_tps:g} tps)"


class RampShape(LoadShape):
    """Linear ramp from ``start_tps`` to ``end_tps`` over ``duration_ms``,
    holding ``end_tps`` afterwards."""

    def __init__(self, start_tps: float, end_tps: float, duration_ms: float) -> None:
        if start_tps <= 0 or end_tps <= 0:
            raise WorkloadError("ramp rates must be positive")
        if duration_ms <= 0:
            raise WorkloadError(f"ramp duration must be positive: {duration_ms}")
        self.start_tps = start_tps
        self.end_tps = end_tps
        self.duration_ms = duration_ms

    def rate_at(self, t_ms: float) -> float:
        if t_ms >= self.duration_ms:
            return self.end_tps
        frac = max(t_ms, 0.0) / self.duration_ms
        return self.start_tps + (self.end_tps - self.start_tps) * frac

    def peak_rate(self) -> float:
        return max(self.start_tps, self.end_tps)

    def describe(self) -> str:
        return (
            f"ramp({self.start_tps:g}->{self.end_tps:g} tps "
            f"over {self.duration_ms:g} ms)"
        )


class DiurnalShape(LoadShape):
    """Sinusoidal day/night curve: ``base`` at t=0, ``peak`` mid-period."""

    def __init__(self, base_tps: float, peak_tps: float, period_ms: float) -> None:
        if base_tps <= 0 or peak_tps < base_tps:
            raise WorkloadError(
                f"need 0 < base <= peak: base={base_tps}, peak={peak_tps}"
            )
        if period_ms <= 0:
            raise WorkloadError(f"period must be positive: {period_ms}")
        self.base_tps = base_tps
        self.peak_tps = peak_tps
        self.period_ms = period_ms

    def rate_at(self, t_ms: float) -> float:
        swing = 0.5 * (1.0 - math.cos(2.0 * math.pi * t_ms / self.period_ms))
        return self.base_tps + (self.peak_tps - self.base_tps) * swing

    def peak_rate(self) -> float:
        return self.peak_tps

    def describe(self) -> str:
        return (
            f"diurnal({self.base_tps:g}..{self.peak_tps:g} tps, "
            f"period {self.period_ms:g} ms)"
        )


class FlashCrowdShape(LoadShape):
    """Baseline traffic with a sudden spike: linear rise at ``at_ms`` over
    ``rise_ms``, then exponential decay back with time constant ``fall_ms``."""

    def __init__(
        self,
        base_tps: float,
        peak_tps: float,
        at_ms: float,
        rise_ms: float = 1000.0,
        fall_ms: float = 5000.0,
    ) -> None:
        if base_tps <= 0 or peak_tps < base_tps:
            raise WorkloadError(
                f"need 0 < base <= peak: base={base_tps}, peak={peak_tps}"
            )
        if at_ms < 0 or rise_ms <= 0 or fall_ms <= 0:
            raise WorkloadError("flash crowd timing must be positive")
        self.base_tps = base_tps
        self.peak_tps = peak_tps
        self.at_ms = at_ms
        self.rise_ms = rise_ms
        self.fall_ms = fall_ms

    def rate_at(self, t_ms: float) -> float:
        if t_ms < self.at_ms:
            return self.base_tps
        surge = self.peak_tps - self.base_tps
        if t_ms < self.at_ms + self.rise_ms:
            return self.base_tps + surge * (t_ms - self.at_ms) / self.rise_ms
        decay = math.exp(-(t_ms - self.at_ms - self.rise_ms) / self.fall_ms)
        return self.base_tps + surge * decay

    def peak_rate(self) -> float:
        return self.peak_tps

    def describe(self) -> str:
        return (
            f"flash({self.base_tps:g}->{self.peak_tps:g} tps at "
            f"{self.at_ms:g} ms)"
        )


def next_arrival_ms(shape: LoadShape, rng: RandomStream, now_ms: float) -> float:
    """Next arrival time after ``now_ms`` via Lewis–Shedler thinning.

    Candidate gaps come from a homogeneous process at ``peak_rate()`` and
    are accepted with probability ``rate_at(t) / peak_rate()``; the
    accepted sequence is a non-homogeneous Poisson process with intensity
    ``rate_at``.  Consumes a deterministic-per-acceptance number of draws
    from ``rng``.
    """
    peak_per_ms = shape.peak_rate() / 1000.0
    if peak_per_ms <= 0:
        raise WorkloadError(f"load shape has no positive peak: {shape.describe()}")
    t = now_ms
    while True:
        t += rng.expovariate(peak_per_ms)
        if rng.random() * shape.peak_rate() <= shape.rate_at(t):
            return t


class HotKeyStormWorkload(WorkloadGenerator):
    """Zipf-popular transactions whose hot keys rotate every epoch.

    Within one epoch (``storm_every_ms``) popularity is Zipf(``skew``)
    over a permuted rank order; at each epoch boundary the rank-to-item
    mapping rotates by a multiplicative-hash offset, so the previously
    cold region of the database suddenly becomes the contention hot spot.
    The soak engine calls :meth:`generate_at` with the submission time;
    plain :meth:`generate` (the base interface) pins epoch 0.
    """

    # Knuth's multiplicative hash constant — spreads successive epochs
    # far apart in item space without consuming any RNG draws.
    _EPOCH_STRIDE = 2654435761

    def __init__(
        self,
        items: list[int],
        max_txn_size: int,
        skew: float = 0.8,
        storm_every_ms: float = 10_000.0,
    ) -> None:
        if max_txn_size < 1:
            raise WorkloadError(f"max_txn_size must be >= 1: {max_txn_size}")
        if storm_every_ms <= 0:
            raise WorkloadError(
                f"storm_every_ms must be positive: {storm_every_ms}"
            )
        self.items = list(items)
        self.zipf = ZipfGenerator(self.items, skew)
        self.max_txn_size = max_txn_size
        self.storm_every_ms = storm_every_ms

    def epoch_of(self, t_ms: float) -> int:
        return max(0, int(t_ms // self.storm_every_ms))

    def _item_for(self, rank_index: int, epoch: int) -> int:
        offset = (epoch * self._EPOCH_STRIDE) % len(self.items)
        return self.items[(rank_index + offset) % len(self.items)]

    def generate_at(
        self, txn_seq: int, rng: RandomStream, t_ms: float
    ) -> list[Operation]:
        epoch = self.epoch_of(t_ms)
        count = rng.randint(1, self.max_txn_size)
        ops = []
        for _ in range(count):
            item = self._item_for(self.zipf.pick_index(rng), epoch)
            kind = OpKind.WRITE if rng.random() < WRITE_PROBABILITY else OpKind.READ
            ops.append(Operation(kind, item))
        return ops

    def generate(self, txn_seq: int, rng: RandomStream) -> list[Operation]:
        return self.generate_at(txn_seq, rng, 0.0)

    def describe(self) -> str:
        return (
            f"hotkey-storm(n={len(self.items)}, skew={self.zipf.skew}, "
            f"storm_every={self.storm_every_ms:g} ms)"
        )


class DebitCreditWorkload(WorkloadGenerator):
    """The DebitCredit (TP1) update mix over a generic item space.

    The canonical early-80s OLTP benchmark, contemporaneous with the
    paper: every transaction debits one account and posts the delta to
    the account's teller and branch.  Unlike :class:`repro.workload.et1
    .Et1Workload` — which draws its four regions independently — this
    preset keeps the TP1 *hierarchy*: the item space is partitioned by
    position (roughly 1 branch and 10 tellers per 100 accounts, floored
    at one each) and account→teller→branch assignment is a pure function
    of the account index.  A transaction is exactly one uniform account
    draw followed by three writes, and the branch rows form a tiny
    always-written hot set: the classic lock-convoy contention shape,
    which independent draws dilute.

    One RNG draw per transaction, independent of submission time, which
    keeps seed determinism trivial to audit.
    """

    def __init__(self, items: list[int]) -> None:
        if len(items) < 3:
            raise WorkloadError(
                f"debitcredit needs >= 3 items (branch/teller/account): "
                f"{len(items)}"
            )
        self.items = list(items)
        total = len(self.items)
        self.branches = max(1, total // 100)
        self.tellers = max(1, total // 10 - self.branches)
        self.accounts = total - self.branches - self.tellers

    def generate(self, txn_seq: int, rng: RandomStream) -> list[Operation]:
        account_index = rng.randint(0, self.accounts - 1)
        teller_index = account_index % self.tellers
        branch_index = teller_index % self.branches
        account = self.items[self.branches + self.tellers + account_index]
        teller = self.items[self.branches + teller_index]
        branch = self.items[branch_index]
        # The three partitions occupy disjoint index ranges, so the items
        # are always distinct — three writes, never a double-lock.
        return [
            Operation(OpKind.WRITE, account),
            Operation(OpKind.WRITE, teller),
            Operation(OpKind.WRITE, branch),
        ]

    def describe(self) -> str:
        return (
            f"debitcredit(branches={self.branches}, tellers={self.tellers}, "
            f"accounts={self.accounts})"
        )

