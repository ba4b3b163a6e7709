"""First-class seeded Zipf item selection.

The paper argues (§5) that modelling only the frequently-referenced subset
with equal probabilities is adequate; skewed popularity probes that
assumption.  :class:`ZipfGenerator` is the picker (one ``rng.random()``
per draw; the soak engine's hot-key storms use it over arbitrary item
sets) and :class:`ZipfWorkload` is a full workload generator over a whole
item range — the "what if popularity is skewed across the entire
database" counterpart to :class:`repro.workload.uniform.UniformWorkload`.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.errors import WorkloadError
from repro.sim.rng import RandomStream
from repro.txn.operations import OpKind, Operation
from repro.workload.base import WorkloadGenerator

__all__ = ["ZipfGenerator", "ZipfWorkload"]


class ZipfGenerator:
    """Seeded Zipf(s) selection over a ranked item list.

    Rank 1 (the first item) is the most popular; weight of rank ``r`` is
    ``1 / r**skew``.  ``skew=0`` degenerates to uniform.  Each ``pick``
    consumes exactly one ``rng.random()`` and returns the first rank
    whose CDF value reaches the draw — the semantics of a linear CDF scan
    (``tests/test_workload_zipf.py`` keeps one as the reference), found by
    bisection so large item sets stay fast.
    """

    __slots__ = ("items", "skew", "_cdf")

    def __init__(self, items: list[int], skew: float) -> None:
        if not items:
            raise WorkloadError("zipf item set is empty")
        if skew < 0:
            raise WorkloadError(f"skew must be non-negative: {skew}")
        self.items = list(items)
        self.skew = skew
        weights = [1.0 / (rank**skew) for rank in range(1, len(self.items) + 1)]
        total = sum(weights)
        self._cdf = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            self._cdf.append(acc)

    def pick_index(self, rng: RandomStream) -> int:
        """Draw a rank index (0-based, 0 = most popular)."""
        point = rng.random()
        # First index with cdf >= point; rounding can leave cdf[-1] just
        # under 1.0, so clamp like the scan's fallback-to-last did.
        return min(bisect_left(self._cdf, point), len(self.items) - 1)

    def pick(self, rng: RandomStream) -> int:
        """Draw an item."""
        return self.items[self.pick_index(rng)]

    def __len__(self) -> int:
        return len(self.items)

    def __repr__(self) -> str:
        return f"ZipfGenerator(n={len(self.items)}, skew={self.skew})"


class ZipfWorkload(WorkloadGenerator):
    """Transactions whose items follow a Zipf popularity over all items."""

    def __init__(
        self,
        items: list[int],
        max_txn_size: int,
        skew: float = 0.8,
        write_probability: float = 0.5,
    ) -> None:
        if max_txn_size < 1:
            raise WorkloadError(f"max_txn_size must be >= 1: {max_txn_size}")
        if not 0.0 <= write_probability <= 1.0:
            raise WorkloadError(
                f"write_probability must be in [0, 1]: {write_probability}"
            )
        self.zipf = ZipfGenerator(items, skew)
        self.max_txn_size = max_txn_size
        self.write_probability = write_probability

    def generate(self, txn_seq: int, rng: RandomStream) -> list[Operation]:
        count = rng.randint(1, self.max_txn_size)
        ops = []
        for _ in range(count):
            item = self.zipf.pick(rng)
            kind = (
                OpKind.WRITE if rng.random() < self.write_probability else OpKind.READ
            )
            ops.append(Operation(kind, item))
        return ops

    def describe(self) -> str:
        return f"zipf-all(n={len(self.zipf)}, skew={self.zipf.skew})"
