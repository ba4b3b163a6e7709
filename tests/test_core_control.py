"""Control transactions: payload round-trips and state transitions."""

import pytest

from repro.core.control import (
    FailureAnnouncement,
    RecoveryAnnouncement,
    RecoveryState,
    decode_vector,
    encode_vector,
)
from repro.core.faillocks import FailLockTable
from repro.core.sessions import NominalSessionVector, SessionRecord, SiteState


def test_vector_encode_decode_roundtrip():
    records = [
        SessionRecord(site_id=0, session=3, state=SiteState.UP),
        SessionRecord(site_id=1, session=1, state=SiteState.DOWN),
    ]
    decoded = decode_vector(encode_vector(records))
    assert [(r.site_id, r.session, r.state) for r in decoded] == [
        (0, 3, SiteState.UP),
        (1, 1, SiteState.DOWN),
    ]


def test_recovery_announcement_roundtrip_and_apply():
    ann = RecoveryAnnouncement(site_id=2, new_session=4)
    ann2 = RecoveryAnnouncement.from_payload(ann.to_payload())
    nsv = NominalSessionVector(owner=0, site_ids=[0, 1, 2])
    assert ann2 == ann
    nsv.mark_down(2)
    # What an operational site does with it (``DatabaseSite``'s handler).
    nsv.mark_up(ann2.site_id, ann2.new_session)
    assert nsv.session_of(2) == 4
    assert nsv.state_of(2) is SiteState.UP


def test_recovery_state_capture_and_install():
    sites = [0, 1]
    items = range(3)
    # Peer (site 1) state: knows item 2 is stale on site 0.
    peer_nsv = NominalSessionVector(owner=1, site_ids=sites)
    peer_nsv.mark_up(0, session=2)
    peer_locks = FailLockTable(site_ids=sites, item_ids=items)
    peer_locks.set_lock(2, 0)
    state = RecoveryState.capture(1, peer_nsv, peer_locks)
    state = RecoveryState.from_payload(state.to_payload())
    assert state.responder == 1
    assert state.size() == 3

    # Recovering site installs it.
    my_nsv = NominalSessionVector(owner=0, site_ids=sites)
    my_nsv.begin_new_session()
    my_locks = FailLockTable(site_ids=sites, item_ids=items)
    state.install_at_recovering_site(my_nsv, my_locks)
    assert my_nsv.is_operational(0)          # marked up after install
    assert my_nsv.my_session == 2            # own entry kept
    assert my_locks.is_locked(2, 0)          # stale item identified


def test_failure_announcement_apply_reports_changes():
    nsv = NominalSessionVector(owner=0, site_ids=[0, 1, 2])
    ann = FailureAnnouncement(announcer=0, failed_sites=[1, 2])
    changed = ann.apply(nsv)
    assert changed == [1, 2]
    assert nsv.up_sites() == (0,)
    # Re-applying changes nothing.
    assert ann.apply(nsv) == []


def test_failure_announcement_roundtrip():
    ann = FailureAnnouncement(announcer=3, failed_sites=[1])
    ann2 = FailureAnnouncement.from_payload(ann.to_payload())
    assert ann2.announcer == 3
    assert ann2.failed_sites == [1]
