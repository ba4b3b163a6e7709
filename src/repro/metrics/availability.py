"""Data-availability accounting (Experiment 2's subject).

The paper's notion of availability on a recovering site: the up-to-date
portion of its database is immediately usable, so availability at any
moment is the fraction of items *not* fail-locked.  The report aggregates a
run's fail-lock samples into the numbers Experiment 2 discusses — peak
inconsistency, transactions to full recovery, and clearing-rate buckets
("the first 10 fail-locks were cleared in only 6 transactions and the last
10 fail-locks were cleared in 106").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.metrics.records import FailLockSample


@dataclass(slots=True)
class AvailabilityReport:
    """Aggregated availability picture for one site over one run."""

    site_id: int
    db_size: int
    peak_locks: int = 0
    peak_seq: int = -1
    recovery_start_seq: int = -1     # first sample after the peak
    recovery_end_seq: int = -1       # first sample back at zero locks
    txns_to_recover: int = -1
    min_availability: float = 1.0
    # (locks remaining, txns it took to clear the previous bucket of 10)
    clearing_buckets: list[tuple[int, int]] = field(default_factory=list)


def availability_of(
    samples: list[FailLockSample], site_id: int, db_size: int, bucket: int = 10
) -> AvailabilityReport:
    """Analyse one site's fail-lock series.

    ``bucket`` controls the clearing-rate analysis granularity (the paper
    uses 10 fail-locks per bucket).
    """
    report = AvailabilityReport(site_id=site_id, db_size=db_size)
    series = [(s.seq, s.locks_per_site.get(site_id, 0)) for s in samples]
    if not series:
        return report

    # ``>=`` anchors the peak at the *end* of any plateau: the last
    # transaction at the maximum is where recovery-by-clearing begins, so
    # bucket timings are not inflated by the idle plateau.
    for seq, locks in series:
        if locks >= report.peak_locks:
            report.peak_locks = locks
            report.peak_seq = seq
    report.min_availability = 1.0 - report.peak_locks / db_size if db_size else 1.0

    if report.peak_locks == 0:
        return report

    # Recovery phase: from the peak forward, find when locks reach zero.
    after_peak = [(seq, locks) for seq, locks in series if seq >= report.peak_seq]
    report.recovery_start_seq = report.peak_seq
    for seq, locks in after_peak:
        if locks == 0:
            report.recovery_end_seq = seq
            report.txns_to_recover = seq - report.peak_seq
            break

    # Clearing-rate buckets: how many transactions each successive batch of
    # ``bucket`` fail-locks took to clear.
    threshold = report.peak_locks - bucket
    bucket_start = report.peak_seq
    for seq, locks in after_peak:
        while locks <= max(threshold, 0) and threshold >= 0:
            report.clearing_buckets.append((max(threshold, 0), seq - bucket_start))
            bucket_start = seq
            threshold -= bucket
        if locks == 0:
            break
    return report
