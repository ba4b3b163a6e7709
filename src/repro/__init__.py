"""repro — replicated copy control during site failure and recovery.

A faithful, laptop-scale reproduction of Bhargava, Noll & Sabo, "An
Experimental Analysis of Replicated Copy Control During Site Failure and
Recovery" (Purdue CSD-TR-692 / ICDE 1988): the mini-RAID prototype, its
ROWAA copy-control protocol (session numbers, nominal session vectors,
fail-locks, control and copier transactions), and the paper's three
experiments, rebuilt on a deterministic discrete-event simulator.

Quickstart::

    from repro import Cluster, SystemConfig, Scenario, FailSite, RecoverSite

    config = SystemConfig(db_size=50, num_sites=2, max_txn_size=5, seed=7)
    cluster = Cluster(config)
    scenario = Scenario(txn_count=120)
    scenario.add_action(1, FailSite(0))
    scenario.add_action(51, RecoverSite(0))
    metrics = cluster.run(scenario)
    print(cluster.faillock_counts(), cluster.audit_consistency())
"""

from repro.system import (
    Cluster,
    SystemConfig,
    CostModel,
    FailureDetection,
    ClearNoticeMode,
    CopyControlStrategy,
    Scenario,
    FailSite,
    RecoverSite,
    PartitionNetwork,
    HealNetwork,
    FixedSite,
    RoundRobin,
    UniformRandom,
    Weighted,
)
from repro.core import (
    SiteState,
    NominalSessionVector,
    FailLockTable,
    RecoveryPolicy,
)
from repro.chaos import FaultPlan, InvariantAuditor, run_seed_sweep
from repro.metrics import MetricsCollector, availability_of
from repro.txn import Transaction, TxnStatus, AbortReason

__version__ = "1.0.0"

__all__ = [
    "Cluster",
    "SystemConfig",
    "CostModel",
    "FailureDetection",
    "ClearNoticeMode",
    "CopyControlStrategy",
    "Scenario",
    "FailSite",
    "RecoverSite",
    "PartitionNetwork",
    "HealNetwork",
    "FixedSite",
    "RoundRobin",
    "UniformRandom",
    "Weighted",
    "SiteState",
    "NominalSessionVector",
    "FailLockTable",
    "RecoveryPolicy",
    "FaultPlan",
    "InvariantAuditor",
    "run_seed_sweep",
    "MetricsCollector",
    "availability_of",
    "Transaction",
    "TxnStatus",
    "AbortReason",
    "__version__",
]
