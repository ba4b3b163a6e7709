"""Exception hierarchy for the repro package.

All exceptions raised by the library derive from :class:`ReproError` so that
callers can catch everything from one root.  Protocol-level outcomes that are
*expected* under the paper's model (e.g. a transaction abort because no
up-to-date copy is reachable) are reported through return values and metrics,
not exceptions; exceptions signal misuse or broken invariants.
"""

from __future__ import annotations


class ReproError(Exception):
    """Root of the repro exception hierarchy."""


class ConfigurationError(ReproError):
    """A :class:`~repro.system.config.SystemConfig` value is invalid."""


class SimulationError(ReproError):
    """The discrete-event simulator was driven into an invalid state."""


class SchedulerError(SimulationError):
    """Events were scheduled in the past or the scheduler was misused."""


class NetworkError(ReproError):
    """Message-passing substrate misuse (unknown site, bad address...)."""


class UnknownSiteError(NetworkError):
    """A message was addressed to a site id that was never registered."""


class StorageError(ReproError):
    """Database substrate misuse."""


class UnknownItemError(StorageError):
    """A data item id is not present in a site's database."""


class ProtocolError(ReproError):
    """A replicated-copy-control invariant was violated."""


class SessionError(ProtocolError):
    """Session number / nominal session vector misuse."""


class FailLockError(ProtocolError):
    """Fail-lock table misuse (e.g. site index out of range)."""


class TransactionError(ReproError):
    """Transaction object misuse (e.g. committing twice)."""


class LockError(ReproError):
    """Lock manager misuse."""


class WorkloadError(ReproError):
    """Workload generator misconfiguration."""


class CheckError(ReproError):
    """A :mod:`repro.check` schedule or exploration request is invalid."""
