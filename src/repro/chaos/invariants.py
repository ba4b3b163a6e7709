"""Online invariant auditing.

:class:`InvariantAuditor` hangs off the cluster's probe hooks (see
:meth:`~repro.system.cluster.Cluster.install_probe`) and checks, as events
happen, the safety properties the paper's protocol promises:

* **atomicity** — 2PC never lets one site apply a transaction's updates
  while the coordinator aborts it (Appendix A: abort is only possible
  before any commit indication is sent);
* **session-monotonicity** — a site's session number, as stamped on its
  outgoing messages, never decreases on any (src, dst) channel.  Sessions
  only grow (each recovery begins a new session) and channels are FIFO, so
  a decrease means either session bookkeeping or transport order broke.
  Cross-channel interleaving is legitimate and is *not* flagged;
* **faillock-coverage** — after commit-time fail-lock maintenance, every
  copy holder that did *not* receive the update is fail-locked (§1.2: the
  operational sites set fail-locks on behalf of the unavailable ones);
* **convergence** — at quiescence, every copy on an alive site that no
  operational site fail-locks carries the newest version, and all such
  copies agree on the value (the replicated-copy-control invariant the
  cluster's ``audit_consistency`` checks, hardened against chaos-induced
  false failure suspicions by auditing the *union* of the operational
  sites' tables);
* **liveness** — every transaction the managing site submitted reaches a
  commit or abort outcome before quiescence, and the drive loop itself
  never stalls (the scheduler must not drain with the scenario
  unfinished).  This is the guarantee the timeout/retransmission layer
  adds: under message loss the bare protocol would block forever.

Violations are recorded into the cluster's metrics as
:class:`~repro.metrics.records.ViolationRecord` rows and kept on the
auditor for the report layer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.faillocks import FailLockTable
from repro.metrics.records import ViolationRecord
from repro.net.message import Message, MessageType
from repro.obs.events import EventKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.site.site import DatabaseSite
    from repro.system.cluster import Cluster


class InvariantAuditor:
    """Checks protocol invariants live, as the cluster runs."""

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        self.violations: list[ViolationRecord] = []
        self.checks = 0
        self._channel_session: dict[tuple[int, int], int] = {}
        self._committed: set[int] = set()
        self._aborted: set[int] = set()
        # Liveness: transactions the managing site submitted vs. the ones
        # it saw complete (both observed from the delivery probe).
        self._submitted: set[int] = set()
        self._finished: set[int] = set()
        self._stalled = False

    # -- flagging -----------------------------------------------------------

    def _flag(
        self,
        invariant: str,
        description: str,
        txn_id: int = -1,
        site_id: int = -1,
        item_id: int = -1,
    ) -> None:
        record = ViolationRecord(
            invariant=invariant,
            time=self.cluster.now,
            description=description,
            txn_id=txn_id,
            site_id=site_id,
            item_id=item_id,
        )
        self.violations.append(record)
        self.cluster.metrics.record_violation(record)
        obs = self.cluster.network.obs
        if obs.enabled:
            # Inherits the current activation scope (e.g. the delivery that
            # triggered the check) as causal parent via the sink's default.
            obs.emit(
                self.cluster.now,
                EventKind.VIOLATION,
                site=site_id,
                txn=txn_id,
                invariant=invariant,
                description=description,
                item=item_id,
            )

    # -- probe hooks (called by network and sites) --------------------------

    def on_message(self, msg: Message) -> None:
        """Delivery probe: session monotonicity + liveness bookkeeping."""
        if msg.mtype is MessageType.MGR_SUBMIT_TXN:
            self._submitted.add(msg.txn_id)
        elif msg.mtype is MessageType.MGR_TXN_DONE:
            self._finished.add(msg.txn_id)
        if msg.session < 0:
            return
        self.checks += 1
        channel = (msg.src, msg.dst)
        last = self._channel_session.get(channel, -1)
        if msg.session < last:
            self._flag(
                "session-monotonicity",
                f"channel {msg.src}->{msg.dst}: {msg.mtype.value} carries "
                f"session {msg.session} after session {last}",
                txn_id=msg.txn_id,
                site_id=msg.src,
            )
        else:
            self._channel_session[channel] = msg.session

    def on_commit_applied(
        self,
        site: "DatabaseSite",
        txn_id: int,
        written_items: list[int],
        recipients: Optional[dict[int, list[int]]],
    ) -> None:
        """A site applied a transaction's committed updates."""
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
        # Coverage: whoever did not receive this update must now be locked.
        holders_view = site.catalog.holders_view
        is_locked = site.faillocks.is_locked
        for item in written_items:
            holders = holders_view(item)
            got = recipients.get(item, ())
            self.checks += len(holders)
            missed = [h for h in holders if h not in got and not is_locked(item, h)]
            # Only the misses are sorted, so violations keep holder order.
            for holder in sorted(missed):
                self._flag(
                    "faillock-coverage",
                    f"site {site.site_id}: txn {txn_id} wrote item {item} "
                    f"past site {holder}, but {holder}'s copy is not "
                    f"fail-locked",
                    txn_id=txn_id,
                    site_id=holder,
                    item_id=item,
                )

    def on_coordinator_abort(self, site_id: int, txn_id: int, reason) -> None:
        """A coordinator aborted a transaction."""
        self.checks += 1
        if txn_id in self._committed:
            self._flag(
                "atomicity",
                f"coordinator {site_id} aborted txn {txn_id} after some site "
                f"already applied its updates",
                txn_id=txn_id,
                site_id=site_id,
            )
        self._aborted.add(txn_id)

    def note_stall(self) -> None:
        """The drive loop stalled: the scheduler drained with the scenario
        unfinished.  Called by the chaos runner when ``Cluster.run`` raises
        :class:`~repro.errors.SimulationError` — under chaos that is a
        liveness violation to report, not a crash."""
        self._stalled = True
        self.checks += 1
        self._flag(
            "liveness",
            "drive loop stalled: scheduler drained before the scenario "
            "finished (a protocol exchange is blocked forever)",
        )

    # -- quiescence audit ---------------------------------------------------

    def check_quiescence(self) -> list[ViolationRecord]:
        """Convergence audit once the run has drained; returns new findings.

        Only copies on *alive* sites are audited: a down site's volatile
        state is by definition lost, and its recovery protocol (cold flag
        on the type-1 announcement) re-locks whatever it held.
        """
        cluster = self.cluster
        before = len(self.violations)
        # Liveness: every submitted transaction must have completed.  Only
        # counted when it fires, so clean conservative-mode reports stay
        # byte-identical to those of earlier revisions.
        unfinished = sorted(self._submitted - self._finished)
        if unfinished:
            self.checks += 1
            self._flag(
                "liveness",
                f"{len(unfinished)} submitted transaction(s) never reached "
                f"commit or abort: {unfinished[:10]}"
                + ("..." if len(unfinished) > 10 else ""),
                txn_id=unfinished[0],
            )
        alive = [s for s in cluster.sites if s.alive]
        if not alive:
            return self.violations[before:]
        # Union of the tables of sites that consider themselves operational:
        # a single observer may have been falsely suspected down (a dropped
        # COMMIT looks like its failure) and missed the corrective type-2
        # announcement — but then some *other* operational table holds the
        # lock, so the union does too.
        observers = [s for s in alive if s.nsv.is_operational(s.site_id)] or alive
        union = FailLockTable(cluster.config.site_ids, cluster.catalog.item_ids)
        for observer in observers:
            union.merge(observer.faillocks.snapshot())

        for item in cluster.catalog.item_ids:
            holders = sorted(cluster.catalog.holders(item))
            alive_holders = [
                cluster.site(h) for h in holders if cluster.site(h).alive
            ]
            if not alive_holders:
                continue
            newest = max(s.db.version(item) for s in alive_holders)
            current: list[tuple[int, int]] = []
            for holder in alive_holders:
                self.checks += 1
                if union.is_locked(item, holder.site_id):
                    continue
                copy = holder.db.get(item)
                if copy.version != newest:
                    self._flag(
                        "convergence",
                        f"item {item}: site {holder.site_id} copy at "
                        f"v{copy.version} is not fail-locked but newest is "
                        f"v{newest}",
                        site_id=holder.site_id,
                        item_id=item,
                    )
                else:
                    current.append((holder.site_id, copy.value))
            if len({value for _site, value in current}) > 1:
                self.checks += 1
                detail = ", ".join(f"site {s}={v}" for s, v in current)
                self._flag(
                    "convergence",
                    f"item {item}: current copies disagree on value ({detail})",
                    item_id=item,
                )
        return self.violations[before:]

    def __repr__(self) -> str:
        return (
            f"InvariantAuditor(checks={self.checks}, "
            f"violations={len(self.violations)})"
        )
