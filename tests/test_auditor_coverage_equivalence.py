"""The auditor's fail-lock coverage check against a transcribed reference.

``InvariantAuditor.on_commit_applied`` tests each written item in one
unsorted pass over its live holder set and sorts only the misses.
``ReferenceAuditor`` walks the sorted holders and flags as it goes, as
the check read before.  Seeded random commits — holder sets of partial
catalogs, recipient lists that miss holders or name non-holders, random
lock masks, fully or partly neutered fail-lock tables — must produce the
same violations in the same order and the same ``checks``, and every
commit must make the same ``is_locked`` calls.
"""

import random

import pytest

from repro.chaos.invariants import InvariantAuditor
from repro.chaos.runner import NeuteredFailLockTable
from repro.core.faillocks import FailLockTable
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig

SITES = 5
ITEMS = 10


class ReferenceAuditor(InvariantAuditor):
    """``on_commit_applied`` with the per-holder sorted walk for every item."""

    def on_commit_applied(self, site, txn_id, written_items, recipients):
        self.checks += 1
        if txn_id in self._aborted:
            self._flag(
                "atomicity",
                f"site {site.site_id} applied updates of txn {txn_id}, "
                f"which its coordinator aborted",
                txn_id=txn_id,
                site_id=site.site_id,
            )
        self._committed.add(txn_id)
        if recipients is None or not site.config.faillocks_enabled:
            return
        for item in written_items:
            got_it = set(recipients.get(item, []))
            for holder in sorted(site.catalog.holders_view(item)):
                self.checks += 1
                if holder in got_it:
                    continue
                if not site.faillocks.is_locked(item, holder):
                    self._flag(
                        "faillock-coverage",
                        f"site {site.site_id}: txn {txn_id} wrote item {item} "
                        f"past site {holder}, but {holder}'s copy is not "
                        f"fail-locked",
                        txn_id=txn_id,
                        site_id=holder,
                        item_id=item,
                    )


def _random_cluster(rng: random.Random) -> Cluster:
    """A cluster with a random partial catalog, random fail-lock masks at
    every site and, at random, some tables neutered."""
    cluster = Cluster(SystemConfig(db_size=ITEMS, num_sites=SITES, seed=1))
    catalog = cluster.catalog
    for item in catalog.item_ids:
        for site in rng.sample(range(SITES), rng.randrange(SITES)):
            if len(catalog.holders_view(item)) > 1:
                catalog.remove_copy(item, site)
    everyone = (1 << SITES) - 1
    for site in cluster.sites:
        site.faillocks.install(
            {item: rng.randrange(everyone + 1) for item in catalog.item_ids}
        )
        if rng.random() < 0.3:
            site.faillocks.__class__ = NeuteredFailLockTable
    return cluster


def _random_commit(rng: random.Random, cluster: Cluster, txn_id: int):
    site = cluster.site(rng.randrange(SITES))
    written = [rng.randrange(ITEMS) for _ in range(rng.randrange(1, 5))]
    if rng.random() < 0.1:
        return site, txn_id, written, None
    recipients = {}
    for item in written:
        if rng.random() < 0.1:
            continue  # an item the coordinator shipped to nobody
        holders = sorted(site.catalog.holders_view(item))
        shipped = [h for h in holders if rng.random() < 0.8]
        if rng.random() < 0.2:
            shipped.append(rng.randrange(SITES))  # a non-holder, or a repeat
        recipients[item] = shipped
    return site, txn_id, written, recipients


def _outcome(auditor: InvariantAuditor) -> tuple:
    return (
        [
            (v.invariant, v.description, v.txn_id, v.site_id, v.item_id)
            for v in auditor.violations
        ],
        auditor.checks,
    )


@pytest.mark.parametrize("seed", range(20))
def test_coverage_check_matches_the_reference(seed, monkeypatch):
    rng = random.Random(seed)
    cluster = _random_cluster(rng)
    fast, reference = InvariantAuditor(cluster), ReferenceAuditor(cluster)
    calls: list = []
    is_locked = FailLockTable.is_locked

    def recording_is_locked(table, item, site):
        calls.append((item, site))
        return is_locked(table, item, site)

    monkeypatch.setattr(FailLockTable, "is_locked", recording_is_locked)
    clean = dirty = 0
    for txn_id in range(60):
        event = _random_commit(rng, cluster, txn_id)
        if rng.random() < 0.05:
            fast.on_coordinator_abort(0, txn_id, "test")
            reference.on_coordinator_abort(0, txn_id, "test")
        flagged = len(fast.violations)
        del calls[:]
        fast.on_commit_applied(*event)
        fast_calls = sorted(calls)
        del calls[:]
        reference.on_commit_applied(*event)
        assert _outcome(fast) == _outcome(reference)
        assert fast_calls == sorted(calls)
        if len(fast.violations) == flagged:
            clean += 1
        else:
            dirty += 1
    # Commits that flag nothing and commits that flag something both ran.
    assert clean and dirty

