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

# Fail-locks per clearing-rate bucket, as in the paper.
BUCKET = 10


@dataclass(slots=True)
class AvailabilityReport:
    """Aggregated availability picture for one site over one run."""

    site_id: int
    db_size: int
    peak_locks: int = 0
    peak_seq: int = -1               # recovery-by-clearing starts here
    txns_to_recover: int = -1        # from the peak to the first zero sample
    # From the first sample after the peak with at most BUCKET locks left
    # to the first zero sample: the paper's "last 10 fail-locks".
    last_bucket_txns: int = -1
    # (locks remaining, txns it took to clear the previous bucket of 10);
    # they stop at the last multiple of 10 below the peak, so the locks
    # under it are in ``last_bucket_txns`` only.
    clearing_buckets: list[tuple[int, int]] = field(default_factory=list)


def availability_of(
    samples: list[FailLockSample], site_id: int, db_size: int
) -> AvailabilityReport:
    """Analyse one site's fail-lock series."""
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

    if report.peak_locks == 0:
        return report

    # Recovery phase: from the peak forward, find when locks reach zero.
    after_peak = [(seq, locks) for seq, locks in series if seq >= report.peak_seq]
    last_bucket_start = None
    for seq, locks in after_peak:
        if last_bucket_start is None and locks <= BUCKET:
            last_bucket_start = seq
        if locks == 0:
            report.txns_to_recover = seq - report.peak_seq
            report.last_bucket_txns = seq - last_bucket_start
            break

    # Clearing-rate buckets: how many transactions each successive batch of
    # ``BUCKET`` fail-locks took to clear.
    threshold = report.peak_locks - BUCKET
    bucket_start = report.peak_seq
    for seq, locks in after_peak:
        while locks <= max(threshold, 0) and threshold >= 0:
            report.clearing_buckets.append((max(threshold, 0), seq - bucket_start))
            bucket_start = seq
            threshold -= BUCKET
        if locks == 0:
            break
    return report
