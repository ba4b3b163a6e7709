"""Session numbers and nominal session vectors (paper §1.1, §1.2).

A *session number* identifies a period in which a site is up; it grows by
one each time the site recovers.  A *nominal session vector* (NSV) is a
site's view of the whole system: its own session number plus the perceived
session numbers and states of every other site.  A site consults its NSV to
decide which sites may participate in a ROWAA transaction, and session
numbers carried on protocol messages expose status changes that happen
while a transaction is in flight.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import SessionError


class SiteState(enum.Enum):
    """The four site states mini-RAID tracked (paper §1.2)."""

    UP = "up"
    DOWN = "down"
    RECOVERING = "waiting_to_recover"
    TERMINATING = "terminating"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(slots=True)
class SessionRecord:
    """One NSV entry: a site's perceived session number and state."""

    site_id: int
    session: int = 1
    state: SiteState = SiteState.UP

    def copy(self) -> "SessionRecord":
        return SessionRecord(site_id=self.site_id, session=self.session, state=self.state)


class NominalSessionVector:
    """One site's array of :class:`SessionRecord`, one per system site."""

    __slots__ = ("owner", "_records", "_site_ids", "_up_mask", "_up", "_signature")

    def __init__(self, owner: int, site_ids: list[int]) -> None:
        if owner not in site_ids:
            raise SessionError(f"owner {owner} not among sites {site_ids}")
        self.owner = owner
        self._records: dict[int, SessionRecord] = {
            site: SessionRecord(site_id=site) for site in sorted(site_ids)
        }
        # The site set is fixed for the life of the vector; keep the sorted
        # ids (and the records in that order) precomputed.
        self._site_ids: list[int] = list(self._records)
        # Cached operational_mask() (-1 = stale), up_sites() and signature()
        # (None = stale).  _transition() and install() reset all three —
        # nothing else may assign SessionRecord.state, and every
        # SessionRecord.session assignment is followed by a _transition().
        self._up_mask = -1
        self._up: tuple[int, ...] | None = None
        self._signature: tuple | None = None

    # -- basic access --------------------------------------------------------

    @property
    def site_ids(self) -> list[int]:
        """All system site ids, sorted."""
        return list(self._site_ids)

    @property
    def num_sites(self) -> int:
        """Number of system sites (no copy, unlike :attr:`site_ids`)."""
        return len(self._site_ids)

    def record(self, site_id: int) -> SessionRecord:
        """The entry for ``site_id``."""
        try:
            return self._records[site_id]
        except KeyError:
            raise SessionError(f"site {site_id} not in session vector") from None

    def session_of(self, site_id: int) -> int:
        """Perceived session number of ``site_id``."""
        return self.record(site_id).session

    def state_of(self, site_id: int) -> SiteState:
        """Perceived state of ``site_id``."""
        return self.record(site_id).state

    @property
    def my_session(self) -> int:
        """The owner's own session number."""
        return self._records[self.owner].session

    # -- queries the protocol needs -------------------------------------------

    def is_operational(self, site_id: int) -> bool:
        """Whether the owner believes ``site_id`` can process transactions.

        Only UP sites participate in ROWAA transactions (paper §1.1); a
        RECOVERING site is still installing state and a DOWN or TERMINATING
        site is unreachable.
        """
        try:
            return self._records[site_id].state is SiteState.UP
        except KeyError:
            raise SessionError(f"site {site_id} not in session vector") from None

    def operational_mask(self) -> int:
        """Bit ``k`` set iff the ``k``-th site (sorted) is believed UP.

        The same bit layout as :class:`~repro.core.faillocks.FailLockTable`
        masks, so ROWAA planning can intersect the two with one ``&``.
        """
        mask = self._up_mask
        if mask < 0:
            up = SiteState.UP
            mask = 0
            for index, record in enumerate(self._records.values()):
                if record.state is up:
                    mask |= 1 << index
            self._up_mask = mask
        return mask

    def up_sites(self) -> tuple[int, ...]:
        """The sites the owner believes are up, sorted (cached; immutable)."""
        sites = self._up
        if sites is None:
            # Records were built in sorted order, so iteration is sorted.
            up = SiteState.UP
            sites = self._up = tuple(
                [s for s, r in self._records.items() if r.state is up]
            )
        return sites

    def operational_peers(self) -> list[int]:
        """Operational sites other than the owner."""
        owner = self.owner
        return [s for s in self.up_sites() if s != owner]

    # -- transitions -----------------------------------------------------------

    def _transition(self, record: SessionRecord, state: SiteState) -> None:
        """The one place a record's state changes; drops the caches."""
        record.state = state
        self._up_mask = -1
        self._up = None
        self._signature = None

    def mark_down(self, site_id: int) -> None:
        """Record that ``site_id`` has failed (type-2 control transaction)."""
        self._transition(self.record(site_id), SiteState.DOWN)

    def mark_up(self, site_id: int, session: int | None = None) -> None:
        """Record that ``site_id`` is operational (after type-1 completes)."""
        record = self.record(site_id)
        if session is not None:
            if session < record.session:
                raise SessionError(
                    f"site {site_id} reported stale session {session} "
                    f"(perceived {record.session})"
                )
            record.session = session
        self._transition(record, SiteState.UP)

    def begin_new_session(self) -> int:
        """Owner starts a new session (on recovery); returns its number."""
        record = self.record(self.owner)
        record.session += 1
        self._transition(record, SiteState.RECOVERING)
        return record.session

    def install(self, records: list[SessionRecord]) -> None:
        """Adopt a peer's vector (type-1 reply), keeping the owner's own
        entry — the recovering site knows its own state best."""
        own = self.record(self.owner)
        self._up_mask = -1
        self._up = None
        self._signature = None
        for incoming in records:
            if incoming.site_id == self.owner:
                continue
            if incoming.site_id not in self._records:
                raise SessionError(f"unknown site {incoming.site_id} in vector")
            self._records[incoming.site_id] = incoming.copy()
        self._records[self.owner] = own

    def snapshot(self) -> list[SessionRecord]:
        """A deep copy of all records (what a type-1 reply ships)."""
        return [self._records[s].copy() for s in self.site_ids]

    def signature(self) -> tuple:
        """Hashable snapshot of the whole vector (``repro.check``)."""
        signature = self._signature
        if signature is None:
            signature = self._signature = tuple(
                (r.site_id, r.session, r.state.value)
                for r in (self._records[s] for s in self._site_ids)
            )
        return signature

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{r.site_id}:{r.session}{'+' if r.state is SiteState.UP else '-'}"
            for r in (self._records[s] for s in self.site_ids)
        )
        return f"NSV(owner={self.owner}, [{parts}])"
