"""Control transactions (paper §1.1).

Control transactions signal nominal-session-vector changes:

* **Type 1** — issued by a recovering site.  It announces the site's new
  session number to every operational site (so they add it back to their
  vectors) and obtains, from one operational site, a copy of the session
  vector and fail-locks to install locally.
* **Type 2** — issued by a site that has determined one or more previously
  operational sites have failed; the survivors mark them DOWN.
* **Type 3** — proposed in §3.2 for partially replicated databases: the
  holder of the last up-to-date copy of an item creates a backup copy on a
  site that has none.

This module holds the *pure* halves — payload encoding/decoding and state
transitions — so they can be unit-tested without a network; the site state
machines drive the message exchanges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.faillocks import FailLockTable
from repro.core.sessions import NominalSessionVector, SessionRecord, SiteState


def encode_vector(records: list[SessionRecord]) -> list[tuple[int, int, str]]:
    """Flatten session records for a message payload."""
    return [(r.site_id, r.session, r.state.value) for r in records]


def decode_vector(encoded: list[tuple[int, int, str]]) -> list[SessionRecord]:
    """Rebuild session records from a message payload."""
    return [
        SessionRecord(site_id=site, session=session, state=SiteState(state))
        for site, session, state in encoded
    ]


@dataclass(slots=True)
class RecoveryAnnouncement:
    """Type-1 announcement: ``site_id`` is preparing to become operational."""

    site_id: int
    new_session: int

    def to_payload(self) -> dict:
        return {"site": self.site_id, "session": self.new_session}

    @classmethod
    def from_payload(cls, payload: dict) -> "RecoveryAnnouncement":
        return cls(site_id=payload["site"], new_session=payload["session"])


@dataclass(slots=True)
class RecoveryState:
    """Type-1 reply: the session vector and fail-locks from a peer."""

    responder: int
    vector_records: list[SessionRecord]
    faillock_masks: dict[int, int]

    def to_payload(self) -> dict:
        return {
            "responder": self.responder,
            "vector": encode_vector(self.vector_records),
            "faillocks": dict(self.faillock_masks),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "RecoveryState":
        return cls(
            responder=payload["responder"],
            vector_records=decode_vector(payload["vector"]),
            faillock_masks=dict(payload["faillocks"]),
        )

    @classmethod
    def capture(
        cls, responder: int, vector: NominalSessionVector, faillocks: FailLockTable
    ) -> "RecoveryState":
        """Snapshot a peer's state for shipping to the recovering site."""
        return cls(
            responder=responder,
            vector_records=vector.snapshot(),
            faillock_masks=faillocks.snapshot(),
        )

    def install_at_recovering_site(
        self, vector: NominalSessionVector, faillocks: FailLockTable
    ) -> None:
        """The recovering site adopts the shipped vector and fail-locks,
        then marks itself UP — it is now operational, with its stale items
        identified by its own fail-lock bits."""
        vector.install(self.vector_records)
        faillocks.install(self.faillock_masks)
        vector.mark_up(vector.owner)

    def size(self) -> int:
        """Item count — drives the transfer-cost model (§2.2.2 notes the
        type-1 reply cost grows with database size)."""
        return len(self.faillock_masks)


@dataclass(slots=True)
class FailureAnnouncement:
    """Type-2 announcement: ``failed_sites`` have been determined down.

    ``stale_items`` carries corrective fail-lock information for the
    Appendix A commit-phase case: a participant that died between acking
    phase one and receiving the commit never applied those items, so the
    survivors must (re)set its fail-lock bits even though they may have
    just cleared them while committing.
    """

    announcer: int
    failed_sites: list[int]
    stale_items: list[int] = field(default_factory=list)

    def to_payload(self) -> dict:
        return {
            "announcer": self.announcer,
            "failed": list(self.failed_sites),
            "stale_items": list(self.stale_items),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "FailureAnnouncement":
        return cls(
            announcer=payload["announcer"],
            failed_sites=list(payload["failed"]),
            stale_items=list(payload.get("stale_items", [])),
        )

    def apply(self, vector: NominalSessionVector) -> list[int]:
        """Mark the announced sites DOWN; returns those newly marked."""
        changed = []
        for site in self.failed_sites:
            if vector.state_of(site) is not SiteState.DOWN:
                vector.mark_down(site)
                changed.append(site)
        return changed
