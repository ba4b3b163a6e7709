"""Fault plans: what the chaos layer is allowed to do, and how often.

A :class:`FaultPlan` bundles the message-fault rates (drop, duplicate,
delay-jitter, bounded reorder) with the site-fault schedule rates (crash,
recover, partition, heal).  The plan is pure configuration — the seeded
randomness lives in :mod:`repro.chaos.interpose` and
:mod:`repro.chaos.schedule` — so the same plan under the same seed always
produces the same run.

Which faults are safe depends on what the cluster is running:

* **Conservative mode** (``full_fault_model=False``, the default —
  byte-identical replay of existing seeds): the cluster runs the paper's
  bare protocol, which assumes reliable FIFO delivery, so faults stay
  inside that assumption.  Drops are restricted to :data:`DROPPABLE`
  (losses that leave only conservative state behind), duplicates to
  :data:`DUPLICABLE` (receivers that dedup or apply idempotently), delays
  are safe anywhere, and reorder is an off-by-default auditor demo.
* **Lossy-core mode** (``full_fault_model=True``: the ``lossy-core``
  preset, :meth:`FaultPlan.lossy`): the runner switches on
  ``reliable_delivery`` and ``timeouts_enabled``, so the retransmission
  sublayer (:mod:`repro.net.reliable`) and the 2PC termination protocol
  discharge the transport assumption themselves.  Any message type — 2PC
  traffic, acks, recovery state, everything — may then be silently
  dropped, duplicated, delayed, or reordered: drops are *silent* (no
  failure notice; recovery is the retransmission layer's job), duplicates
  are caught by the receiver-side dedup window, and reordering is undone
  by the sequence-number reorder buffer.

The managing site's control plane (``MGR_*`` traffic) is never touched in
either mode: it is the experimenter's harness, not the network under test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.net.message import MessageType

# Per-slot probability that the schedule heals a partition.
HEAL_RATE = 0.3

# Message types whose loss stays within the BARE protocol's environment
# assumptions (conservative mode only — lossy-core mode ignores this set,
# because the retransmission sublayer makes every loss recoverable).
# The protocol's safety rests on an implicit invariant: all
# operational sites hold IDENTICAL fail-lock knowledge (every commit's
# maintenance and every announcement reaches every operational site), and
# the type-1 recovery install trusts that invariant by REPLACING the
# recovering site's table with any operational responder's.  Losing a
# message breaks the invariant in one of two ways:
#
# * A drop surfaces to the sender exactly like a delivery to a down site,
#   so the sender runs its Appendix-A "destination failed" branch — a
#   FALSE failure suspicion of a live site.  Coordinators with false-down
#   vectors shrink their write-all-available recipient sets; the excluded
#   site's table silently goes stale; the next recovery that picks it as
#   the type-1 responder installs the stale table and destroys the
#   surviving sites' fail-lock knowledge.  This rules out VOTE_REQ,
#   COMMIT, COPY_REQ, and RECOVERY_ANNOUNCE drops — the paper's model is
#   fail-stop, and these losses simulate failures that did not happen.
#
# * A lost FAILURE_ANNOUNCE with corrective ``stale_items`` leaves the
#   receiver UNDER-locked: a stale copy it now believes current.
#
# That leaves exactly the losses after which every table is still correct
# or strictly over-locked (conservative):
#
# * ABORT — the participant keeps staged updates that no commit
#   indication will ever touch; they are discarded state, never applied;
# * CLEAR_FAILLOCKS — the receiver keeps a fail-lock for a copy that was
#   already refreshed; over-locking costs a redundant copier, not safety.
#
# In conservative mode, acks, responses, and manager traffic are never
# faulted: the bare serial drive loop has no timeouts and would simply
# stall.  Under the full fault model every one of these restrictions is
# lifted — timeouts, retransmission, and the termination protocol exist
# precisely so that 2PC traffic loss is survivable.
DROPPABLE: frozenset[MessageType] = frozenset(
    {
        MessageType.ABORT,
        MessageType.CLEAR_FAILLOCKS,
    }
)

# Message types whose double delivery the receiver tolerates: staged-write
# deduplication (VOTE_REQ), pop-then-ack (COMMIT), and idempotent state
# application (ABORT, COPY_REQ, CLEAR_FAILLOCKS, FAILURE_ANNOUNCE).
DUPLICABLE: frozenset[MessageType] = frozenset(
    {
        MessageType.VOTE_REQ,
        MessageType.COMMIT,
        MessageType.ABORT,
        MessageType.COPY_REQ,
        MessageType.CLEAR_FAILLOCKS,
        MessageType.FAILURE_ANNOUNCE,
    }
)


@dataclass(slots=True)
class FaultPlan:
    """Rates and bounds for every fault class the chaos layer injects.

    All rates are per-opportunity probabilities: message faults roll once
    per transmitted (non-exempt) message, schedule faults roll once per
    transaction slot.
    """

    # Full fault model: drop/duplicate/delay/reorder ANY message type
    # (drops silently — no failure notice).  Requires the cluster to run
    # with ``reliable_delivery`` and ``timeouts_enabled`` (the chaos
    # runner switches both on when it sees this flag); injecting silent
    # loss into the bare protocol would simply stall the drive loop.
    full_fault_model: bool = False

    # -- message faults (the interposition layer) --------------------------
    drop_rate: float = 0.02
    duplicate_rate: float = 0.02
    delay_rate: float = 0.2
    delay_max_ms: float = 25.0
    reorder_rate: float = 0.0          # FIFO-breaking; off by default

    # -- site-fault schedule (crash / recover / partition / heal) ----------
    crash_rate: float = 0.06
    recover_rate: float = 0.25
    # Partitions default OFF: ROWAA assumes operational sites stay mutually
    # connected (the paper's environment has no partitions), and an isolated
    # coordinator really does diverge — "write all available" per its own
    # vector commits updates the majority never sees.  Turning this on is a
    # supported way to *watch the auditor catch that divergence*, not a
    # configuration the protocol claims to survive.
    partition_rate: float = 0.0
    # Every schedule forces one crash (so every seed exercises the
    # fail-lock machinery) and holds the crashed site down for at least
    # this many transactions before it becomes eligible for recovery.
    forced_hold_txns: int = 8

    # -- recovery-window scenarios (repro.recovery presets) ----------------
    # How many sites the forced crash fells in the same transaction slot
    # (a rack / power-domain failure).  1 = the classic single crash.
    correlated_crashes: int = 1
    # Probability that a site that just recovered fails again in the same
    # slot — right after its type-1 control transaction, i.e. inside its
    # own recovery period (the flapping-site scenario).  0 = never, and
    # the schedule generator draws no extra randomness, keeping existing
    # presets byte-identical.
    flap_rate: float = 0.0
    # Isolate each recovering site from the other database sites the
    # moment its type-1 completes (a partition striking mid-recovery),
    # healing one to two slots later.
    partition_mid_recovery: bool = False

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on any bad value."""
        for name in (
            "drop_rate",
            "duplicate_rate",
            "delay_rate",
            "reorder_rate",
            "crash_rate",
            "recover_rate",
            "partition_rate",
            "flap_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1]: {value}")
        if self.delay_max_ms < 0:
            raise ConfigurationError(
                f"delay_max_ms must be non-negative: {self.delay_max_ms}"
            )
        if self.forced_hold_txns < 0:
            raise ConfigurationError(
                f"forced_hold_txns must be >= 0: {self.forced_hold_txns}"
            )
        if self.correlated_crashes < 1:
            raise ConfigurationError(
                f"correlated_crashes must be >= 1: {self.correlated_crashes}"
            )

    def describe(self) -> str:
        """A deterministic one-line summary (report header)."""
        base = (
            f"drop={self.drop_rate:.0%} dup={self.duplicate_rate:.0%} "
            f"delay={self.delay_rate:.0%}<={self.delay_max_ms:.0f}ms "
            f"reorder={self.reorder_rate:.0%} | "
            f"crash={self.crash_rate:.0%} recover={self.recover_rate:.0%} "
            f"partition={self.partition_rate:.0%} heal={HEAL_RATE:.0%}"
        )
        # Appended only in lossy-core mode so conservative-mode reports
        # stay byte-identical to those of earlier revisions.
        if self.full_fault_model:
            base += " | mode=lossy-core (all message types, silent drops)"
        # Same gating discipline for the recovery-window scenario modes.
        if self.correlated_crashes > 1:
            base += (
                f" | mode=correlated ({self.correlated_crashes} sites in one slot)"
            )
        if self.flap_rate > 0.0:
            base += f" | mode=flapping (flap={self.flap_rate:.0%} after recovery)"
        if self.partition_mid_recovery:
            base += " | mode=partition-recovery (riser isolated after type-1)"
        return base

    @classmethod
    def quiet(cls) -> "FaultPlan":
        """No message faults; only the crash/recover/partition schedule."""
        return cls(drop_rate=0.0, duplicate_rate=0.0, delay_rate=0.0)

    @classmethod
    def lossy(cls) -> "FaultPlan":
        """The full fault model: any message type may be silently dropped,
        duplicated, delayed, or delivered early (FIFO-breaking) — survivable
        because the runner pairs this plan with ``reliable_delivery`` and
        ``timeouts_enabled``."""
        return cls(
            full_fault_model=True,
            drop_rate=0.05,
            duplicate_rate=0.05,
            delay_rate=0.25,
            reorder_rate=0.10,
        )

    @classmethod
    def correlated(cls) -> "FaultPlan":
        """Correlated multi-site failure: the forced crash fells two sites
        in the same transaction slot (a rack or power-domain failure), so
        recovery must proceed with a depleted donor pool.  Message faults
        stay quiet to keep the scenario the thing under test."""
        return cls(
            drop_rate=0.0,
            duplicate_rate=0.0,
            delay_rate=0.0,
            correlated_crashes=2,
            recover_rate=0.35,
        )

    @classmethod
    def flapping(cls) -> "FaultPlan":
        """Flapping sites: a recovered site is likely to fail again right
        after its type-1 control transaction — inside its own recovery
        period — then come back once more (the RepCRec-style
        fail/recover-with-stale-replicas model)."""
        return cls(
            drop_rate=0.0,
            duplicate_rate=0.0,
            delay_rate=0.0,
            flap_rate=0.6,
            recover_rate=0.4,
            forced_hold_txns=4,
        )

    @classmethod
    def partition_recovery(cls) -> "FaultPlan":
        """Partitions striking mid-recovery: the moment a site finishes
        its type-1, the network isolates it from every other database
        site for one to two transaction slots.  Its batch copiers bounce,
        it falsely suspects its donors, and the fail-lock machinery must
        keep the divergence conservatively covered."""
        return cls(
            drop_rate=0.0,
            duplicate_rate=0.0,
            delay_rate=0.0,
            partition_mid_recovery=True,
            recover_rate=0.35,
        )

    @classmethod
    def aggressive(cls) -> "FaultPlan":
        """Heavier faults for stress sweeps (still FIFO-preserving, and
        still within the protocol's environment assumptions)."""
        return cls(
            drop_rate=0.06,
            duplicate_rate=0.06,
            delay_rate=0.5,
            delay_max_ms=60.0,
            crash_rate=0.12,
        )


# ``repro chaos --mode``: each preset's name and the constructor of its plan.
PRESETS = {
    "default": FaultPlan,
    "quiet": FaultPlan.quiet,
    "aggressive": FaultPlan.aggressive,
    "lossy-core": FaultPlan.lossy,
    "correlated": FaultPlan.correlated,
    "flapping": FaultPlan.flapping,
    "partition-recovery": FaultPlan.partition_recovery,
}


@dataclass(slots=True)
class FaultStats:
    """Counts of faults actually injected during one run."""

    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0
    reordered: int = 0
    by_type: dict[str, int] = field(default_factory=dict)

    def note(self, kind: str, mtype: MessageType) -> None:
        """Record one injected fault of ``kind`` on a ``mtype`` message."""
        setattr(self, kind, getattr(self, kind) + 1)
        # ``_value_`` is the member's plain attribute; ``.value`` is a
        # Python-level property.
        key = kind + ":" + mtype._value_
        by_type = self.by_type
        by_type[key] = by_type.get(key, 0) + 1

    @property
    def total(self) -> int:
        """All injected message faults."""
        return self.dropped + self.duplicated + self.delayed + self.reordered

    def describe(self) -> str:
        """Deterministic ``drop/dup/delay/reorder`` summary cell."""
        return f"{self.dropped}/{self.duplicated}/{self.delayed}/{self.reordered}"
