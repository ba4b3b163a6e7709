"""The metrics collector shared by all sites and the managing site."""

from __future__ import annotations

from typing import Callable, Optional

from repro.metrics.counters import CounterSet
from repro.metrics.records import (
    ControlRecord,
    FailLockSample,
    RecoveryPeriodRecord,
    TxnRecord,
)


class MetricsCollector:
    """Accumulates every measurement series a cluster run produces.

    Without a ``txn_sink`` every :class:`TxnRecord` is retained in
    ``txns`` (the exact-record mode all existing experiments replay
    byte-identically).  Long soak and open-loop runs instead set a
    ``txn_sink`` callable (e.g. :class:`repro.metrics.streaming.StreamingTxnSink`):
    records still flow through ``record_txn`` once, but only aggregates
    survive, keeping memory flat in the transaction count.
    """

    def __init__(self, txn_sink: Optional[Callable[[TxnRecord], None]] = None) -> None:
        self.txn_sink = txn_sink
        self.txns: list[TxnRecord] = []
        self.controls: list[ControlRecord] = []
        self.recoveries: list[RecoveryPeriodRecord] = []
        self.faillock_samples: list[FailLockSample] = []
        self.counters = CounterSet()
        # Participant elapsed times staged here until the managing site
        # finalizes the transaction's record.
        self._pending_participants: dict[int, dict[int, float]] = {}

    def note_participant(self, txn_id: int, site_id: int, elapsed: float) -> None:
        """Stage one participant's elapsed time for ``txn_id``."""
        self._pending_participants.setdefault(txn_id, {})[site_id] = elapsed

    def pop_participants(self, txn_id: int) -> dict[int, float]:
        """Collect (and forget) staged participant times for ``txn_id``."""
        return self._pending_participants.pop(txn_id, {})

    # -- recording -----------------------------------------------------------

    def record_txn(self, record: TxnRecord) -> None:
        if self.txn_sink is None:
            self.txns.append(record)
        else:
            self.txn_sink(record)
        self.counters.incr("txns")
        self.counters.incr("commits" if record.committed else "aborts")

    def record_control(self, record: ControlRecord) -> None:
        self.controls.append(record)
        self.counters.incr(f"control_type{record.kind}")

    def record_copier(self, batch: bool) -> None:
        """Count one copier exchange (``batch``: a recovery policy's)."""
        self.counters.incr("copiers")
        if batch:
            self.counters.incr("batch_copiers")

    def record_recovery_period(self, record: RecoveryPeriodRecord) -> None:
        self.recoveries.append(record)
        self.counters.incr("recovery_periods")
        if record.interrupted:
            self.counters.incr("recovery_periods_interrupted")

    def record_faillock_sample(self, sample: FailLockSample) -> None:
        self.faillock_samples.append(sample)

    # -- queries the experiments use -------------------------------------------

    @property
    def committed(self) -> list[TxnRecord]:
        return [t for t in self.txns if t.committed]

    @property
    def aborted(self) -> list[TxnRecord]:
        return [t for t in self.txns if not t.committed]

    def coordinator_times(self) -> list[float]:
        """Coordinator elapsed times over committed transactions."""
        return [record.coordinator_elapsed for record in self.committed]

    def participant_times(self) -> list[float]:
        """All participant elapsed times over committed transactions."""
        times: list[float] = []
        for record in self.committed:
            times.extend(record.participant_elapsed.values())
        return times

    def control_times(self, kind: int, role: Optional[str] = None) -> list[float]:
        """Durations of control transactions of ``kind`` (optionally by role)."""
        return [
            c.elapsed
            for c in self.controls
            if c.kind == kind and (role is None or c.role == role)
        ]

    def faillock_series(self, site_id: int) -> list[tuple[int, int]]:
        """``(txn seq, fail-locks on site)`` pairs — a figure's line."""
        return [
            (s.seq, s.locks_per_site.get(site_id, 0)) for s in self.faillock_samples
        ]

    def __repr__(self) -> str:
        return (
            f"MetricsCollector(txns={len(self.txns)}, controls={len(self.controls)}, "
            f"copiers={self.counters.get('copiers')}, samples={len(self.faillock_samples)})"
        )
