"""Session numbers and nominal session vectors."""

import pytest

from repro.core.sessions import NominalSessionVector, SiteState
from repro.errors import SessionError


@pytest.fixture
def nsv() -> NominalSessionVector:
    return NominalSessionVector(owner=0, site_ids=[0, 1, 2, 3])


def test_initial_all_up(nsv):
    assert nsv.up_sites() == (0, 1, 2, 3)
    assert nsv.my_session == 1
    assert nsv.is_operational(2)


def test_owner_must_be_member():
    with pytest.raises(SessionError):
        NominalSessionVector(owner=9, site_ids=[0, 1])


def test_mark_down_excludes_from_operational(nsv):
    nsv.mark_down(2)
    assert nsv.state_of(2) is SiteState.DOWN
    assert nsv.up_sites() == (0, 1, 3)


def test_operational_peers_excludes_owner(nsv):
    assert nsv.operational_peers() == [1, 2, 3]


def test_begin_new_session_increments(nsv):
    session = nsv.begin_new_session()
    assert session == 2
    assert nsv.my_session == 2
    assert nsv.state_of(0) is SiteState.RECOVERING


def test_recovering_site_not_operational(nsv):
    nsv.install([(1, 2, "waiting_to_recover")])
    assert not nsv.is_operational(1)
    assert nsv.session_of(1) == 2


def test_mark_up_with_session(nsv):
    nsv.mark_down(1)
    nsv.mark_up(1, session=3)
    assert nsv.is_operational(1)
    assert nsv.session_of(1) == 3


def test_mark_up_rejects_stale_session(nsv):
    nsv.mark_up(1, session=4)
    with pytest.raises(SessionError):
        nsv.mark_up(1, session=2)


def test_terminating_not_operational(nsv):
    nsv.install([(3, 1, "terminating")])
    assert not nsv.is_operational(3)


def test_install_keeps_own_entry(nsv):
    nsv.begin_new_session()  # owner now session 2, RECOVERING
    incoming = [
        (0, 1, "down"),  # stale view of us
        (1, 7, "down"),
        (2, 3, "up"),
        (3, 1, "up"),
    ]
    nsv.install(incoming)
    assert nsv.my_session == 2  # our own entry preserved
    assert nsv.state_of(0) is SiteState.RECOVERING
    assert nsv.session_of(1) == 7
    assert nsv.state_of(1) is SiteState.DOWN


def test_install_rejects_unknown_site(nsv):
    with pytest.raises(SessionError):
        nsv.install([(42, 1, "up")])


def test_snapshot_is_deep(nsv):
    """The rows a type-1 reply ships are a snapshot: later transitions of
    the vector they came from reach neither them nor a vector that
    installed them."""
    rows = nsv.signature()
    peer = NominalSessionVector(owner=3, site_ids=[0, 1, 2, 3])
    peer.install(rows)
    nsv.mark_down(1)
    nsv.mark_up(1, session=99)
    assert rows[1] == (1, 1, "up")
    assert peer.session_of(1) == 1
    assert nsv.signature() != rows


def test_unknown_site_raises(nsv):
    with pytest.raises(SessionError):
        nsv.record(42)


# -- operational mask (cached; ROWAA planning intersects it with fail-locks) ----


def _scanned_mask(nsv):
    return sum(
        1 << index
        for index, site in enumerate(nsv.site_ids)
        if nsv.state_of(site) is SiteState.UP
    )


def _scanned_signature(nsv):
    return tuple(
        (r.site_id, r.session, r.state.value) for r in map(nsv.record, nsv.site_ids)
    )


def test_operational_mask_layout_matches_sorted_sites():
    nsv = NominalSessionVector(owner=5, site_ids=[9, 5, 2])
    assert nsv.operational_mask() == 0b111
    nsv.mark_down(5)  # the middle site in sorted order is bit 1
    assert nsv.operational_mask() == 0b101


@pytest.mark.parametrize(
    "transition",
    [
        lambda v: v.mark_down(1),
        lambda v: v.begin_new_session(),
        lambda v: (v.mark_down(1), v.operational_mask(), v.mark_up(1, 2)),
        lambda v: v.install([(1, 4, "down"), (2, 2, "waiting_to_recover")]),
    ],
    ids=["mark_down", "begin_new_session", "mark_up", "install"],
)
def test_operational_mask_cache_dropped_by_every_transition(nsv, transition):
    before = nsv.operational_mask()  # fills the cache
    assert before == _scanned_mask(nsv) == 0b1111
    signature = nsv.signature()  # fills the other one (repro.check reads it)
    assert nsv.signature() is signature == _scanned_signature(nsv)
    transition(nsv)
    assert nsv.operational_mask() == _scanned_mask(nsv)
    assert nsv.signature() == _scanned_signature(nsv) != signature
    assert list(nsv.up_sites()) == [
        s for i, s in enumerate(nsv.site_ids) if nsv.operational_mask() >> i & 1
    ]


def test_operational_mask_survives_failed_install(nsv):
    nsv.operational_mask()
    bad = [(1, 1, "down"), (42, 1, "up")]
    with pytest.raises(SessionError):
        nsv.install(bad)
    # Site 1 was adopted before the unknown site raised: no stale cache.
    assert nsv.operational_mask() == _scanned_mask(nsv)


def test_signature_cache_survives_failed_transitions(nsv):
    # mark_up rejects a stale session before assigning anything, so the
    # cached signature it leaves behind is still true.
    nsv.mark_up(2, 3)
    signature = nsv.signature()
    for stale in (1, 2):
        with pytest.raises(SessionError):
            nsv.mark_up(2, stale)
        assert nsv.signature() == _scanned_signature(nsv) == signature


def test_only_sessions_module_assigns_record_state():
    # The caches are safe because every state change goes through the
    # vector's transitions (and every session change is followed by
    # one); keep it that way.
    import re
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    assign = re.compile(r"\.(state|session)\s*[-+]?=[^=]")
    offenders = [
        str(path.relative_to(src))
        for path in sorted(src.rglob("*.py"))
        if path.name != "sessions.py"
        and any(
            assign.search(line) and not re.search(r"self\.(state|session)\b", line)
            for line in path.read_text(encoding="utf-8").splitlines()
        )
    ]
    assert offenders == [], (
        "`<obj>.state/.session = ...` outside core/sessions.py; if it is a SessionRecord, "
        f"use a NominalSessionVector transition instead: {offenders}"
    )


# -- the cached up-set behind every write set ----------------------------------


def _scanned_up(nsv):
    return [s for s in nsv.site_ids if nsv.state_of(s) is SiteState.UP]


def _write_set_answers(nsv, planner, items):
    """Every answer the coordinator builds from the up-set: operational
    sites and peers, each item's write set, the phase-1 participants and
    the strategy refusal count (ROWA / QUORUM)."""
    return (
        list(nsv.up_sites()),
        nsv.operational_peers(),
        [planner.write_sites(item) for item in items],
        planner.participants_for(items),
        len(nsv.up_sites()),
    )


def _scanned_answers(nsv, catalog, items):
    up = _scanned_up(nsv)
    writes = [[s for s in up if catalog.holds(s, item)] for item in items]
    peers = sorted({s for sites in writes for s in sites} - {nsv.owner})
    return (up, [s for s in up if s != nsv.owner], writes, peers, len(up))


@pytest.mark.parametrize(
    "transition",
    [
        lambda v: v.mark_down(1),
        lambda v: (v.mark_down(3), v.up_sites(), v.mark_up(3, 2)),
        lambda v: v.install([(1, 4, "down"), (2, 2, "waiting_to_recover")]),
    ],
    ids=["mark_down", "mark_up", "install"],
)
def test_up_set_cache_dropped_by_every_transition(nsv, transition):
    from repro.core.faillocks import FailLockTable
    from repro.core.rowaa import RowaaPlanner
    from repro.storage.catalog import ReplicationCatalog

    sites, items = nsv.site_ids, [0, 1, 2]
    catalog = ReplicationCatalog(items, sites)
    for item, holders in zip(items, ([0, 1, 2, 3], [1, 3], [0, 2])):
        for site in holders:
            catalog.add_copy(item, site)
    planner = RowaaPlanner(0, nsv, FailLockTable(sites, items), catalog)
    before = _write_set_answers(nsv, planner, items)  # fills the cache
    assert before == _scanned_answers(nsv, catalog, items)
    transition(nsv)
    after = _write_set_answers(nsv, planner, items)
    assert after == _scanned_answers(nsv, catalog, items)
    # Each call hands out a fresh list: a caller mutating it changes
    # nothing the next caller sees.
    for answer in (after[1], after[2][0], after[3]):
        answer.append(99)
    assert _write_set_answers(nsv, planner, items) == _scanned_answers(
        nsv, catalog, items
    )
