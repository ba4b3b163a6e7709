"""State fingerprinting for visited-state pruning.

A fingerprint must identify cluster states that will *behave*
identically: two runs that reach the same fingerprint can only diverge
through future choice points, so the explorer needs to expand the
alternatives at such a state once.  The digest therefore covers exactly
the protocol-visible state —

* every site's :meth:`DatabaseSite.signature` (committed + staged
  copies, session vector, fail-locks, both 2PC roles, lock table),
* the managing site's drive-loop progress, and
* the *pending event set*: live scheduler entries described by relative
  due time, action, and a stable payload summary.

— and excludes everything that is history, not state: metrics, logs,
and absolute timestamps.  Nothing process-local may enter it either
(Python's built-in ``hash()`` for strings is ``PYTHONHASHSEED``-randomized
and would poison cross-process stability — hence :mod:`hashlib`).
"""

from __future__ import annotations

import enum
import hashlib
from typing import Any, TYPE_CHECKING

from repro.net.message import Message
from repro.net.network import Network

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system.cluster import Cluster

__all__ = ["cluster_fingerprint", "message_signature", "pending_signature"]


def message_signature(msg: Message) -> tuple:
    """Stable identity of an in-flight message (no times)."""
    return (
        "msg",
        msg.src,
        msg.dst,
        msg.mtype.value,
        msg.txn_id,
        msg.session,
        msg.seq,
        _canon(msg.payload),
    )


def _canon(value: Any) -> Any:
    """Recursively canonicalize payload data into hashable, stable terms."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return tuple(
            (_canon(k), _canon(v)) for k, v in sorted(value.items(), key=repr)
        )
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_canon(v) for v in value]
        if isinstance(value, (set, frozenset)):
            items.sort(key=repr)
        return tuple(items)
    if isinstance(value, Message):
        return message_signature(value)
    signature = getattr(value, "signature", None)
    if callable(signature):
        return (type(value).__name__, signature())
    # Dataclass-style objects (SessionRecord, Transaction) have stable,
    # address-free reprs; anything else degrades to its type name.
    text = repr(value)
    return text if "0x" not in text else type(value).__name__


def _action_name(action: Any) -> str:
    """A process-stable name for a heap-entry callable."""
    name = getattr(action, "__qualname__", None)
    if name is None:
        func = getattr(action, "__func__", None)
        name = getattr(func, "__qualname__", type(action).__name__)
    return name


def _entry_signature(entry: tuple, now: float) -> tuple:
    """Stable description of one live heap entry, relative to ``now``."""
    time, _seq, action, payload = entry
    relative = round(time - now, 9)
    if action is None:  # cancellable Event wrapper
        event = payload
        return (
            relative,
            "timer",
            event.label,
            _action_name(event.action),
            tuple(_canon(a) for a in event.args),
        )
    func = getattr(action, "__func__", None)
    if func is Network._deliver:
        return (relative, "deliver", message_signature(payload[0]))
    if func is Network._release_activation or func is Network._run_activation:
        # The trailing arg is the obs trace scope id: -1 untraced, an
        # event counter when a TraceSink is enabled.  It is observation,
        # not protocol state — hashing it would make tracing perturb
        # exploration.
        payload = payload[:-1]
    return (
        relative,
        _action_name(action),
        tuple(_canon(a) for a in payload),
    )


def pending_signature(cluster: "Cluster") -> tuple:
    """Signatures of all live pending events, sorted for stability.

    Sorted by repr rather than heap position: the heap's internal layout
    depends on push/pop history, which is schedule history — exactly what
    a state fingerprint must not observe.
    """
    scheduler = cluster.scheduler
    now = scheduler.clock._now
    sigs = []
    for entry in scheduler._heap:
        if entry[2] is None and entry[3].cancelled:
            continue
        sigs.append(_entry_signature(entry, now))
    if len(sigs) > 1:  # the common 0 or 1 entries need no repr to order
        sigs.sort(key=repr)
    return tuple(sigs)


def cluster_fingerprint(cluster: "Cluster") -> str:
    """Digest of the whole protocol-visible cluster state."""
    signature = (
        tuple(site.signature() for site in cluster.sites),
        cluster.manager.signature(),
        pending_signature(cluster),
    )
    return hashlib.blake2b(repr(signature).encode(), digest_size=16).hexdigest()
