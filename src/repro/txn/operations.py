"""Transaction operations.

A mini-RAID operation is "a read or write of a database data item"
(paper §1.2).  A generated transaction is a random-length list of such
operations over the frequently-referenced portion of the database, each
operation equally likely to be a read or a write, each on a uniformly
random item.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.errors import WorkloadError
from repro.sim.rng import RandomStream


class OpKind(enum.Enum):
    """Read or write."""

    READ = "read"
    WRITE = "write"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Operation(NamedTuple):
    """One operation on one data item: an immutable value, built once by
    the workload and shipped in ``MGR_SUBMIT_TXN`` as it is."""

    kind: OpKind
    item_id: int

    def __repr__(self) -> str:
        return f"{self.kind.value[0]}({self.item_id})"


def random_transaction_ops(
    rng: RandomStream,
    item_ids: list[int],
    max_ops: int,
    write_probability: float = 0.5,
) -> list[Operation]:
    """Generate one transaction's operations exactly as the paper does.

    Length is uniform in ``[1, max_ops]``; each operation is a write with
    ``write_probability`` (0.5 in the paper) on a uniformly random item.
    """
    if not item_ids:
        raise WorkloadError("cannot generate operations over an empty item set")
    if max_ops < 1:
        raise WorkloadError(f"max_ops must be >= 1, got {max_ops}")
    if not 0.0 <= write_probability <= 1.0:
        raise WorkloadError(f"write probability must be in [0, 1]: {write_probability}")
    count = rng.randint(1, max_ops)
    ops = []
    for _ in range(count):
        kind = OpKind.WRITE if rng.random() < write_probability else OpKind.READ
        ops.append(Operation(kind, rng.choice(item_ids)))
    return ops
