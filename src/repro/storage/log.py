"""Redo logging for commit processing.

The paper's sites commit buffered copy updates during phase two of the
commit protocol.  The redo log records each applied write so that tests can
audit exactly which writes a site saw (and in what order), and so recovery
semantics (a refreshed copy's version) are externally checkable.
"""

from __future__ import annotations

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

    ``capacity`` bounds retention for long soak runs (the lsn keeps
    counting, further records are dropped and tallied in
    ``dropped_records``); ``None`` retains everything, which is what the
    tests and recovery audits rely on.
    """

    def __init__(self, capacity: int | None = None) -> None:
        self.capacity = capacity
        self.dropped_records = 0
        self._lsn = 0
        self._records: list[LogRecord] = []

    def append(
        self,
        txn_id: int,
        item_id: int,
        old_value: int,
        new_value: int,
        old_version: int,
        new_version: int,
        time: float,
    ) -> LogRecord:
        """Record one write; returns the new record."""
        self._lsn += 1
        record = LogRecord(
            self._lsn,
            txn_id,
            item_id,
            old_value,
            new_value,
            old_version,
            new_version,
            time,
        )
        if self.capacity is not None and len(self._records) >= self.capacity:
            self.dropped_records += 1
        else:
            self._records.append(record)
        return record

    @property
    def records(self) -> list[LogRecord]:
        """All records, oldest first (do not mutate)."""
        return self._records

    def for_txn(self, txn_id: int) -> list[LogRecord]:
        """Records written on behalf of ``txn_id``."""
        return [r for r in self._records if r.txn_id == txn_id]

    def for_item(self, item_id: int) -> list[LogRecord]:
        """Records that touched ``item_id``."""
        return [r for r in self._records if r.item_id == item_id]

    def __len__(self) -> int:
        return len(self._records)
