"""The auditor's fail-lock coverage check against a brute-force oracle.

For every written item the oracle walks every site of the cluster, asks
the catalog whether it holds a copy and reads the committing site's raw
fail-lock mask: a holder the commit did not reach must have its bit set.
Seeded random commits — full catalogs (one holder set shared by every
item) and partial ones (per-item sets), recipient lists that miss holders
or name non-holders, random masks, fully or partly neutered tables — must
give exactly the oracle's violations, in holder order, and ``checks``, and
``is_locked`` is asked about exactly the holders the commit missed.
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


def _random_cluster(rng: random.Random) -> Cluster:
    cluster = Cluster(SystemConfig(db_size=ITEMS, num_sites=SITES, seed=1))
    catalog = cluster.catalog
    for item in rng.sample(range(ITEMS), rng.randrange(ITEMS + 1)):
        for site in rng.sample(range(SITES), rng.randrange(SITES)):
            catalog.remove_copy(item, site)  # the first leaves a copy-on-write set
    everyone = (1 << SITES) - 1
    for site in cluster.sites:
        site.faillocks.install({i: rng.randrange(everyone + 1) for i in range(ITEMS)})
        if rng.random() < 0.3:
            site.faillocks.__class__ = NeuteredFailLockTable
    return cluster


def _oracle(cluster, site, txn_id, written, recipients):
    """(flags, checks, is_locked questions) the coverage check must give."""
    flags, checks, asked = [], 0, []
    for item in written:
        for holder in range(SITES):
            if not cluster.catalog.holds(holder, item):
                continue
            checks += 1
            if holder in recipients.get(item, ()):
                continue
            asked.append((item, holder))
            if not site.faillocks.mask(item) >> holder & 1:
                flags.append(("faillock-coverage", txn_id, holder, item))
    return flags, checks, asked


@pytest.mark.parametrize("seed", range(20))
def test_coverage_check_matches_the_reference(seed, monkeypatch):
    rng = random.Random(seed)
    cluster = _random_cluster(rng)
    auditor = InvariantAuditor(cluster)
    asked = []
    is_locked = FailLockTable.is_locked
    monkeypatch.setattr(
        FailLockTable, "is_locked",
        lambda table, item, site: asked.append((item, site)) or is_locked(table, item, site),
    )
    flagged = set()
    for txn_id in range(60):
        site = cluster.site(rng.randrange(SITES))
        written = [rng.randrange(ITEMS) for _ in range(rng.randrange(1, 5))]
        recipients = {
            item: [h for h in range(SITES) if rng.random() < 0.7]
            for item in written
            if rng.random() < 0.9  # else an item shipped to nobody
        }
        if rng.random() < 0.1:
            recipients = None
        expected, checks, questions = [], 0, []
        if recipients is not None:
            expected, checks, questions = _oracle(cluster, site, txn_id, written, recipients)
        before, checks_before = len(auditor.violations), auditor.checks
        del asked[:]
        auditor.on_commit_applied(site, txn_id, written, recipients)
        got = [(v.invariant, v.txn_id, v.site_id, v.item_id) for v in auditor.violations[before:]]
        assert got == expected
        assert auditor.checks - checks_before == 1 + checks
        assert sorted(asked) == sorted(questions)
        flagged.add(bool(got))
    # Commits that flag nothing and commits that flag something both ran.
    assert flagged == {True, False}
