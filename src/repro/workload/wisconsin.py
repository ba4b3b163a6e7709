"""Wisconsin-benchmark-shaped workload — Bitton, DeWitt & Turbyfill (the
paper's [Bitt83] future-work benchmark).

The Wisconsin benchmark mixes selections (range scans) with targeted
updates.  At mini-RAID's data-item granularity that becomes: transactions
that read a contiguous run of items (a selection over a clustered range)
interleaved with transactions that update a few scattered items.
"""

from __future__ import annotations

from repro.sim.rng import RandomStream

from repro.errors import WorkloadError
from repro.txn.operations import OpKind, Operation
from repro.workload.base import WorkloadGenerator


class WisconsinWorkload(WorkloadGenerator):
    """Alternating range-scan reads and scattered updates."""

    def __init__(
        self,
        item_ids: list[int],
        scan_length: int = 5,
        update_count: int = 2,
        scan_fraction: float = 0.5,
    ) -> None:
        if not item_ids:
            raise WorkloadError("item set is empty")
        if scan_length < 1 or scan_length > len(item_ids):
            raise WorkloadError(
                f"scan_length must be in [1, {len(item_ids)}]: {scan_length}"
            )
        if update_count < 1:
            raise WorkloadError(f"update_count must be >= 1: {update_count}")
        if not 0.0 <= scan_fraction <= 1.0:
            raise WorkloadError(f"scan_fraction must be in [0, 1]: {scan_fraction}")
        self.item_ids = sorted(item_ids)
        # Operations are immutable values: each item's read and write is
        # built once, and every transaction shares them.
        self._reads = [Operation(OpKind.READ, item) for item in self.item_ids]
        self._read_write = {
            read.item_id: (read, Operation(OpKind.WRITE, read.item_id))
            for read in self._reads
        }
        self.scan_length = scan_length
        self.update_count = update_count
        self.scan_fraction = scan_fraction

    def generate(self, txn_seq: int, rng: RandomStream) -> list[Operation]:
        if rng.random() < self.scan_fraction:
            start = rng.randint(0, len(self.item_ids) - self.scan_length)
            return self._reads[start : start + self.scan_length]
        targets = rng.sample(
            self.item_ids, min(self.update_count, len(self.item_ids))
        )
        ops: list[Operation] = []
        for item in targets:
            ops += self._read_write[item]
        return ops

    def describe(self) -> str:
        return (
            f"wisconsin(items={len(self.item_ids)}, scan={self.scan_length}, "
            f"updates={self.update_count}, scan_frac={self.scan_fraction})"
        )
