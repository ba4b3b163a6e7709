"""The paper's workload: uniform items, equal read/write probability.

The paper notes its 50/50 read/write mix sets fail-locks faster than a
realistic read-heavy mix would, but also clears them faster during
recovery; "if reads occur more commonly than writes then more copier
transactions would probably be requested".  ``write_probability`` makes
the ratio a parameter so that trade-off can be measured (ablation A3).
"""

from __future__ import annotations

from repro.sim.rng import RandomStream

from repro.errors import WorkloadError
from repro.txn.operations import WRITE_PROBABILITY, Operation, random_transaction_ops
from repro.workload.base import WorkloadGenerator


class UniformWorkload(WorkloadGenerator):
    """Random transactions exactly as the managing site generated them.

    Length uniform in ``[1, max_txn_size]``; each operation a write with
    ``write_probability`` (equal odds in the paper, §1.2), else a read, on a
    uniformly random frequently-referenced item.
    """

    def __init__(
        self,
        item_ids: list[int],
        max_txn_size: int,
        write_probability: float = WRITE_PROBABILITY,
    ) -> None:
        if not item_ids:
            raise WorkloadError("item set is empty")
        if max_txn_size < 1:
            raise WorkloadError(f"max_txn_size must be >= 1: {max_txn_size}")
        if not 0.0 <= write_probability <= 1.0:
            raise WorkloadError(
                f"write_probability must be in [0, 1]: {write_probability}"
            )
        self.item_ids = list(item_ids)
        self.max_txn_size = max_txn_size
        self.write_probability = write_probability

    def generate(self, txn_seq: int, rng: RandomStream) -> list[Operation]:
        return random_transaction_ops(
            rng, self.item_ids, self.max_txn_size, self.write_probability
        )

    def describe(self) -> str:
        return (
            f"uniform(items={len(self.item_ids)}, max_size={self.max_txn_size}, "
            f"write_p={self.write_probability})"
        )
