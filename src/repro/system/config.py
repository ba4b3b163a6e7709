"""System configuration.

Mirrors the parameters the paper's managing site exposed (§1.2): database
size (number of frequently-referenced items), number of database sites, and
maximum operations per transaction — plus the knobs this reproduction adds
for the ablations and extensions the paper discusses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.core.recovery import RecoveryPolicy
from repro.system.costs import CostModel


class FailureDetection(enum.Enum):
    """How surviving sites learn about a failure.

    ``ANNOUNCED``: failing a site immediately triggers a type-2 control
    transaction to the survivors (the managing-site behaviour implied by
    the paper's scenarios, which show no detection-related aborts).

    ``TIMEOUT``: survivors only find out when a message to the failed site
    goes unanswered; the in-flight transaction aborts and the discoverer
    runs the type-2 control transaction (Appendix A, taken literally).
    """

    ANNOUNCED = "announced"
    TIMEOUT = "timeout"


class ClearNoticeMode(enum.Enum):
    """How copier-cleared fail-locks are propagated to other sites.

    ``SPECIAL_TXN``: a dedicated CLEAR_FAILLOCKS message per operational
    site (the paper's measured implementation, ≈20 ms each).

    ``EMBEDDED``: the clears ride inside the phase-1 copy updates — the
    optimization §2.2.3 suggests "could significantly reduce this
    overhead".
    """

    SPECIAL_TXN = "special_txn"
    EMBEDDED = "embedded"


class CopyControlStrategy(enum.Enum):
    """Replicated-copy-control strategy run by the cluster."""

    ROWAA = "rowaa"     # the paper's protocol
    ROWA = "rowa"       # strict read-one/write-ALL: any down site blocks writes
    QUORUM = "quorum"   # majority quorum consensus (El Abbadi et al. family)


@dataclass(slots=True)
class SystemConfig:
    """Every knob of a cluster run.  Defaults are the paper's Experiment 1
    configuration (db=50, sites=4, max transaction size=10)."""

    db_size: int = 50
    num_sites: int = 4
    max_txn_size: int = 10
    write_probability: float = 0.5
    seed: int = 42

    faillocks_enabled: bool = True
    detection: FailureDetection = FailureDetection.ANNOUNCED
    clear_notice_mode: ClearNoticeMode = ClearNoticeMode.SPECIAL_TXN
    strategy: CopyControlStrategy = CopyControlStrategy.ROWAA

    recovery_policy: RecoveryPolicy = RecoveryPolicy.ON_DEMAND
    batch_threshold: float = 0.2
    batch_size: int = 5

    # Donor spreading for on-demand / two-step copiers: pick each item's
    # copier source round-robin among all up-to-date donors (by item id)
    # instead of always the lowest.  Off by default so committed seeds
    # replay byte-identically.  The PARALLEL policy always spreads.
    spread_copier_sources: bool = False
    # PARALLEL policy: maximum donors addressed concurrently during one
    # fan-out round (0 = every eligible donor).
    recovery_fanout: int = 0

    # "Complete RAID" extension: strict 2PL at every site with global
    # deadlock detection, enabling concurrent (open-loop) transaction
    # streams.  Off for all paper reproductions (mini-RAID was serial).
    concurrency_control: bool = False

    # Crash model.  Mini-RAID "failed" sites kept their process memory, so
    # recovery starts from the last pre-crash state (warm).  With
    # ``cold_recovery`` a failure wipes the site's volatile database; on
    # recovery every one of its copies is fail-locked and must be
    # refreshed — the harder crash model real systems face.
    cold_recovery: bool = False

    # Timing substrate.  ``cores=1`` reproduces mini-RAID's single
    # processor; ``cores >= num_sites + 1`` with nonzero wire latency
    # approximates the "complete RAID" multi-machine deployment.
    costs: CostModel = field(default_factory=CostModel)
    cores: int = 1
    wire_latency_ms: float = 0.0
    failure_detect_delay_ms: float = 0.0

    # Reliable-delivery sublayer (repro.net.reliable): per-channel
    # sequence numbers, receiver-side dedup/ordering, ack-tracked
    # retransmission with exponential backoff (timer constants:
    # ``RetransmitPolicy``).  Off by default — the stock network already
    # is the paper's reliable FIFO transport, and leaving the layer out
    # keeps existing seeds byte-identical.  Required for any fault mode
    # that drops messages silently (chaos ``lossy_core``).
    reliable_delivery: bool = False

    # Protocol-level timeouts (2PC termination).  Off by default for the
    # same byte-identical-replay reason.  When enabled: a coordinator that
    # waits longer than ``vote_timeout_ms`` for phase-1 acks aborts the
    # transaction; one that waits longer than ``commit_retry_ms`` for
    # phase-2 acks re-sends the COMMIT, up to ``commit_max_retries`` times
    # before treating the silent participants as failed; a participant
    # holding staged updates longer than ``status_inquiry_ms`` runs the
    # TXN_STATUS_REQ cooperative-termination inquiry.
    timeouts_enabled: bool = False
    vote_timeout_ms: float = 400.0
    commit_retry_ms: float = 400.0
    commit_max_retries: int = 10
    status_inquiry_ms: float = 900.0

    # The managing site's address is one past the last database site.
    @property
    def site_ids(self) -> list[int]:
        """Database site ids: 0 .. num_sites-1 (as in the paper)."""
        return list(range(self.num_sites))

    @property
    def manager_id(self) -> int:
        """The managing site's address."""
        return self.num_sites

    @property
    def item_ids(self) -> list[int]:
        """Data item ids: 0 .. db_size-1."""
        return list(range(self.db_size))

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on any bad value."""
        if self.db_size < 1:
            raise ConfigurationError(f"db_size must be >= 1: {self.db_size}")
        if self.num_sites < 1:
            raise ConfigurationError(f"num_sites must be >= 1: {self.num_sites}")
        if self.max_txn_size < 1:
            raise ConfigurationError(f"max_txn_size must be >= 1: {self.max_txn_size}")
        if not 0.0 <= self.write_probability <= 1.0:
            raise ConfigurationError(
                f"write_probability must be in [0, 1]: {self.write_probability}"
            )
        if not 0.0 <= self.batch_threshold <= 1.0:
            raise ConfigurationError(
                f"batch_threshold must be in [0, 1]: {self.batch_threshold}"
            )
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1: {self.batch_size}")
        if self.recovery_fanout < 0:
            raise ConfigurationError(
                f"recovery_fanout must be non-negative: {self.recovery_fanout}"
            )
        if self.cores < 1:
            raise ConfigurationError(f"cores must be >= 1: {self.cores}")
        if self.wire_latency_ms < 0:
            raise ConfigurationError(
                f"wire_latency_ms must be non-negative: {self.wire_latency_ms}"
            )
        if self.failure_detect_delay_ms < 0:
            raise ConfigurationError(
                f"failure_detect_delay_ms must be non-negative: "
                f"{self.failure_detect_delay_ms}"
            )
        for name in ("vote_timeout_ms", "commit_retry_ms", "status_inquiry_ms"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(
                    f"{name} must be positive: {getattr(self, name)}"
                )
        if self.commit_max_retries < 1:
            raise ConfigurationError(
                f"commit_max_retries must be >= 1: {self.commit_max_retries}"
            )

    @classmethod
    def paper_experiment1(cls, **overrides) -> "SystemConfig":
        """The §2.2 configuration: db=50, sites=4, max txn size=10."""
        return cls(db_size=50, num_sites=4, max_txn_size=10, **overrides)

    @classmethod
    def paper_experiment2(cls, **overrides) -> "SystemConfig":
        """The §3.1.1 configuration: db=50, sites=2, max txn size=5."""
        return cls(db_size=50, num_sites=2, max_txn_size=5, **overrides)

    @classmethod
    def paper_experiment3_scenario2(cls, **overrides) -> "SystemConfig":
        """The §4.2.2 configuration: db=50, sites=4, max txn size=5."""
        return cls(db_size=50, num_sites=4, max_txn_size=5, **overrides)
