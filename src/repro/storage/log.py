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
    newest ``capacity`` records and drops every older one, while the lsn
    keeps counting (so a record's lsn is its place in the whole history).
    ``None`` retains everything, which is what the tests and recovery
    audits rely on.
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
        # Shrinking drops the oldest records.
        self._records = deque(self._records, maxlen=capacity)

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

    def __len__(self) -> int:
        return len(self._records)
