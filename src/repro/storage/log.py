"""Redo logging for commit processing.

The paper's sites commit buffered copy updates during phase two of the
commit protocol.  The redo log records each applied write so that tests can
audit exactly which writes a site saw (and in what order), and so recovery
semantics (a refreshed copy's version) are externally checkable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass(slots=True)
class LogRecord:
    """One applied write."""

    lsn: int
    txn_id: int
    item_id: int
    old_value: int
    new_value: int
    old_version: int
    new_version: int
    time: float


class RedoLog:
    """Append-only per-site redo log.

    ``capacity`` bounds retention for long soak runs: the log keeps the
    newest ``capacity`` records, the lsn keeps counting, and every older
    record is dropped and tallied in ``dropped_records``.  ``None`` retains
    everything, which is what the tests and recovery audits rely on.
    Records are kept as plain tuples in :class:`LogRecord` field order and
    materialised only when read.
    """

    def __init__(self, capacity: int | None = None) -> None:
        self._lsn = 0
        self._records: deque[tuple] = deque(maxlen=capacity)

    @property
    def capacity(self) -> int | None:
        return self._records.maxlen

    @capacity.setter
    def capacity(self, capacity: int | None) -> None:
        # Shrinking drops the oldest records (and tallies them).
        self._records = deque(self._records, maxlen=capacity)

    @property
    def dropped_records(self) -> int:
        """Records appended but no longer retained."""
        return self._lsn - len(self._records)

    def append(
        self,
        txn_id: int,
        item_id: int,
        old_value: int,
        new_value: int,
        old_version: int,
        new_version: int,
        time: float,
    ) -> int:
        """Record one write; returns its lsn."""
        lsn = self._lsn = self._lsn + 1
        self._records.append(
            (lsn, txn_id, item_id, old_value, new_value, old_version, new_version, time)
        )
        return lsn

    @property
    def records(self) -> list[LogRecord]:
        """The retained records, oldest first."""
        return [LogRecord(*r) for r in self._records]

    def for_txn(self, txn_id: int) -> list[LogRecord]:
        """Retained records written on behalf of ``txn_id``."""
        return [LogRecord(*r) for r in self._records if r[1] == txn_id]

    def for_item(self, item_id: int) -> list[LogRecord]:
        """Retained records that touched ``item_id``."""
        return [LogRecord(*r) for r in self._records if r[2] == item_id]

    def __len__(self) -> int:
        return len(self._records)
