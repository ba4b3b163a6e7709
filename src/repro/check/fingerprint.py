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


def _live_entries(scheduler: Any) -> list[tuple]:
    """Everything still due to fire: the heap and the same-instant
    now-queue (both run loops park zero-delay posts there, and
    ``_run_choosing`` the tied entries its hook did not pick), cancelled
    timers excepted."""
    return [
        entry
        for entry in (*scheduler._heap, *scheduler._nowq)
        if entry[2] is not None or not entry[3].cancelled
    ]


def pending_signature(cluster: "Cluster") -> tuple:
    """Signatures of all live pending events, sorted for stability — the
    tuple whose ``repr`` ``cluster_fingerprint`` assembles from texts.

    Sorted by repr rather than heap position: the heap's internal layout
    depends on push/pop history, which is schedule history — exactly what
    a state fingerprint must not observe.
    """
    scheduler = cluster.scheduler
    now = scheduler.clock._now
    sigs = [_entry_signature(entry, now) for entry in _live_entries(scheduler)]
    if len(sigs) > 1:  # the common 0 or 1 entries need no repr to order
        sigs.sort(key=repr)
    return tuple(sigs)


def _is_activation(entry: tuple) -> bool:
    """Whether a pending entry is one of the network's four callbacks —
    the only ones known to change a site solely inside an activation."""
    func = getattr(entry[2], "__func__", None)
    return (
        func is Network._deliver
        or func is Network._run_activation
        or func is Network._release_activation
        or func is Network._run_failure_notice
    )


def _message_text(msg: Message, texts: dict) -> bytes:
    """``repr(message_signature(msg))``, made once per message per run.

    ``texts`` maps ``id(msg)`` to ``(msg, text)``: holding the message
    keeps its id from being reused while the entry lives.  Sound because
    nothing changes a message between the activation that queues it and
    its delivery (``tests/test_check_incremental_fingerprint.py``).
    """
    hit = texts.get(id(msg))
    if hit is not None and hit[0] is msg:
        return hit[1]
    text = repr(message_signature(msg)).encode()
    texts[id(msg)] = (msg, text)
    return text


def _tuple_text(parts: list[bytes]) -> bytes:
    """``repr`` of a tuple whose elements' ``repr``s are ``parts``."""
    if len(parts) == 1:
        return b"(" + parts[0] + b",)"
    return b"(" + b", ".join(parts) + b")"


def _entry_text(entry: tuple, now: float, texts: dict) -> bytes:
    """``repr(_entry_signature(entry, now))``, encoded, reusing the texts
    this fingerprint already has: a delivery's message and a release's
    outbox from the per-message memo, a release's site from its own text.
    Any other entry is the reference ``repr``."""
    time, _seq, action, payload = entry
    func = getattr(action, "__func__", None)
    if func is Network._deliver:
        relative = round(time - now, 9)
        head = f"({relative!r}, 'deliver', ".encode()
        return head + _message_text(payload[0], texts) + b")"
    if func is Network._release_activation:
        endpoint, outbox, timers, completions, _scope = payload
        signed = texts.get(endpoint)
        if signed is not None:
            relative = round(time - now, 9)
            sent = _tuple_text(
                [
                    _message_text(m, texts)
                    if type(m) is Message
                    else repr(_canon(m)).encode()
                    for m in outbox
                ]
            )
            head = (
                f"({relative!r}, {_action_name(action)!r}, "
                f"(({type(endpoint).__name__!r}, "
            ).encode()
            tail = f", {_canon(timers)!r}, {_canon(completions)!r}))".encode()
            return head + signed + b"), " + sent + tail
    return repr(_entry_signature(entry, now)).encode()


def cluster_fingerprint(cluster: "Cluster") -> str:
    """Digest of the whole protocol-visible cluster state.

    The hashed text is ``repr((sites, manager, pending))``, streamed into
    one blake2b from each site's ``repr(site.signature())``, the
    manager's, and each pending entry's.  A site changes state only in its
    own activations, and ``Network.endpoint_memo`` drops a site's entry
    when one ends — so a site's text is rebuilt only if it ran since the
    last fingerprint.  The same memo keeps each in-flight message's text
    for the rest of the run.  What that rule cannot vouch for re-signs
    every site: a network nobody armed, the first fingerprint of a run, a
    ``concurrency_control`` cluster (the shared deadlock detector calls a
    victim's abort hook from another site's activation), a pending
    foreign callback.  The from-scratch reference lives in ``tests/``.
    """
    scheduler = cluster.scheduler
    live = _live_entries(scheduler)
    armed = cluster.network.endpoint_memo
    vouched = (
        armed is not None
        and not cluster.config.concurrency_control
        and all(map(_is_activation, live))
    )
    if armed and not vouched:
        armed.clear()  # and nothing signed now is kept for the next one
    memo = armed if vouched else {}
    sites = cluster.sites
    for site in sites:
        if site not in memo:
            memo[site] = repr(site.signature()).encode()
    now = scheduler.clock._now
    digest = hashlib.blake2b(b"((", digest_size=16)
    update = digest.update
    update(b", ".join([memo[site] for site in sites]))
    update(b",), " if len(sites) == 1 else b"), ")
    update(repr(cluster.manager.signature()).encode())
    update(b", ")
    update(_tuple_text(sorted([_entry_text(entry, now, memo) for entry in live])))
    update(b")")
    return digest.hexdigest()
