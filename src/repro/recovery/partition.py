"""Deterministic partitioning of a stale-item set across donor sites.

The planner assigns each fail-locked item to one up-to-date donor so the
recovering site can fetch all shards concurrently.  Determinism matters:
`repro.check` fingerprints protocol state, and chaos seeds must replay
byte-identically — so the plan is a pure function of the (sorted) item
list and the planner's current fail-lock/session view, with no RNG.

Balancing rule: items are considered in ascending id order; each goes to
the *least-loaded* eligible donor so far (ties broken by lowest donor
id).  Under full replication this degenerates to an even round-robin;
under partial replication it load-balances whatever donor sets exist.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.rowaa import RowaaPlanner


def plan_partitions(
    planner: "RowaaPlanner",
    item_ids: Iterable[int],
    exclude: Iterable[int] = (),
    max_donors: int = 0,
    batch_size: int = 0,
) -> dict[int, list[int]]:
    """Shard ``item_ids`` across up-to-date donor sites.

    Returns ``{donor_site: [item, ...]}`` with every item list ascending.
    Items with no eligible donor (none operational and current, or all in
    ``exclude``) are simply absent — they cannot be fetched this round and
    will be re-planned once the donor picture changes.

    ``exclude`` removes donors from consideration (busy with an
    outstanding shard, or denied this epoch).  ``max_donors`` > 0 caps how
    many *distinct* donors the plan may open; once the cap is reached,
    items whose donor sets do not intersect the opened set are deferred to
    a later round rather than over-committing.

    ``batch_size`` > 0 keeps only the first ``batch_size`` items of every
    shard — all one round can send — and stops planning once every donor
    that could still be chosen is that loaded.  Items come in ascending
    order and a shard only ever grows at its tail, so nothing after that
    point could land inside any donor's first ``batch_size``: the result
    equals the unbounded plan cut to ``batch_size`` per donor, at a cost
    proportional to what is sent rather than to the whole stale set.
    """
    excluded = frozenset(exclude)
    shards: dict[int, list[int]] = {}
    loads: dict[int, int] = {}
    # Every donor a later item could still go to: the operational peers not
    # excluded, or — once ``max_donors`` shards are open — just those.
    choosable = sum(
        1 for site in planner.vector.up_sites()
        if site != planner.owner and site not in excluded
    )
    if max_donors > 0:
        choosable = min(choosable, max_donors)
    full = 0
    donors_of = planner.donor_lookup()
    for item in sorted(item_ids):
        if batch_size > 0 and full >= choosable:
            break
        capped = max_donors > 0 and len(loads) >= max_donors
        best, best_load = -1, 0
        for donor in donors_of(item):  # ascending: ties go low
            if donor in excluded or (capped and donor not in loads):
                continue
            load = loads.get(donor, 0)
            if best < 0 or load < best_load:
                best, best_load = donor, load
        if best < 0:
            continue
        loads[best] = best_load + 1
        if batch_size <= 0 or best_load < batch_size:
            shards.setdefault(best, []).append(item)
            if best_load + 1 == batch_size:
                full += 1
    return shards
