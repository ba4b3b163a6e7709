"""The three choice-point hooks that plug the controller into a cluster.

Each hook turns one source of nondeterminism the real system would have
— but the deterministic simulator resolves by fiat — into an explicit,
enumerable choice:

``OrderChoiceHook`` (kind ``"order"``)
    Installed as :attr:`EventScheduler.tie_breaker`.  The scheduler's
    tie-break contract resolves same-time events in posting order; a real
    distributed system promises no such thing.  The hook offers the tied
    group's *eligible* entries as alternatives.  Eligibility preserves
    per-channel FIFO (which the protocol legitimately assumes of its
    links): a tied message delivery is a candidate only if no
    earlier-posted tied delivery shares its (src, dst) channel.
    Everything else — CPU completions, timers, deliveries on distinct
    channels — may be permuted freely.

``FateChoiceHook`` (kind ``"fate"``)
    Installed as :attr:`Network.interposer`.  Offers deliver-vs-drop for
    each message whose loss the bare protocol is specified to survive
    (``repro.chaos.faults.DROPPABLE``); drops are non-silent, so the
    sender gets the same failure notice a partition would produce.

``FaultChoiceHook`` (kind ``"fault"``)
    Substituted for ``Scenario.actions`` (duck-typed: the managing site
    only calls ``.get(seq, default)``).  At every transaction boundary it
    offers crash/recover placements within the failure budget, tracking
    believed-up sites exactly as the manager does.

All hooks consult the controller only at genuine branch points (arity
≥ 2); a degenerate point is taken silently so decision vectors index
only real choices.  With an empty vector every hook reproduces the
default behaviour exactly — the basis of the replay-identity guarantee.
"""

from __future__ import annotations

from typing import Any, Optional, TYPE_CHECKING

from repro.chaos.faults import DROPPABLE
from repro.check.choices import ChoiceController
from repro.net.network import MessageFate, Network
from repro.system.scenario import FailSite, RecoverSite

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.message import Message

__all__ = ["OrderChoiceHook", "FateChoiceHook", "FaultChoiceHook"]


def _describe(entry: tuple) -> tuple[str, tuple, Optional[tuple[int, int]]]:
    """(label, dep key, FIFO channel or None) of one tied heap entry.

    The label is human-stable (no process-local ids); the channel is the
    ``(src, dst)`` of a message delivery, the only kind of entry whose
    order among its peers is constrained.
    """
    action = entry[2]
    if action is None:  # cancellable Event
        event = entry[3]
        label = event.label or getattr(
            event.action, "__qualname__", type(event.action).__name__
        )
        return f"timer {label}", ("any",), None
    func = getattr(action, "__func__", None)
    if func is Network._deliver:
        msg = entry[3][0]
        src, dst = msg.src, msg.dst
        return (
            f"deliver {msg.mtype._value_} {src}->{dst} txn={msg.txn_id}",
            ("deliver", src, dst),
            (src, dst),
        )
    name = getattr(action, "__qualname__", None)
    if name is None:
        name = getattr(func, "__qualname__", type(action).__name__)
    return f"run {name}", ("any",), None


class OrderChoiceHook:
    """``scheduler.tie_breaker``: pick which tied entry fires first."""

    def __init__(self, controller: ChoiceController, max_branch: int = 3) -> None:
        self.controller = controller
        self.max_branch = max_branch
        # seq -> _describe(entry).  A tied entry that does not fire is
        # offered again with the next group; its description is made once.
        self._described: dict[int, tuple[str, tuple, Optional[tuple[int, int]]]] = {}

    def __call__(self, tied: list[tuple]) -> int:
        # Candidate filter: walk the group in (time, seq) order; a message
        # delivery is eligible only if its channel has not already been
        # seen (firing it first would reorder that channel); everything
        # else is always eligible.  Entry 0 has the minimal seq, so it is
        # always eligible and alternative 0 is always the default order.
        described = self._described
        max_branch = self.max_branch
        candidates: list[int] = []
        labels: list[str] = []
        dep_keys: list[tuple] = []
        seen_channels: set[tuple[int, int]] = set()
        for i, entry in enumerate(tied):
            if len(candidates) >= max_branch:
                break
            about = described.get(entry[1])
            if about is None:
                about = described[entry[1]] = _describe(entry)
            channel = about[2]
            if channel is not None:
                if channel in seen_channels:
                    continue
                seen_channels.add(channel)
            candidates.append(i)
            labels.append(about[0])
            dep_keys.append(about[1])
        if len(candidates) < 2:
            return 0
        return candidates[self.controller.choose("order", labels, dep_keys)]


# DROPPABLE as a tuple: membership by identity, without hashing the enum.
_DROPPABLE = tuple(DROPPABLE)


class FateChoiceHook:
    """``network.interposer``: deliver vs. drop, for survivable messages."""

    def __init__(self, controller: ChoiceController, max_drops: int = 1) -> None:
        self.controller = controller
        self.max_drops = max_drops
        self.drops = 0

    def intercept(self, msg: "Message") -> Optional[MessageFate]:
        if msg.mtype not in _DROPPABLE or self.drops >= self.max_drops:
            return None
        stem = f"{msg.mtype.value} {msg.src}->{msg.dst} txn={msg.txn_id}"
        pick = self.controller.choose(
            "fate",
            (f"deliver {stem}", f"drop {stem}"),
            (("deliver", msg.src, msg.dst), ("drop", msg.src, msg.dst)),
        )
        if pick == 1:
            self.drops += 1
            # Non-silent: the sender is notified, as with a partition.
            # The bare protocol (no retransmission layer in check runs)
            # is specified to survive exactly this.
            return MessageFate(drop=True)
        return None


class FaultChoiceHook:
    """Duck-typed ``Scenario.actions``: crash/recover placement by choice.

    The managing site calls ``actions.get(seq, [])`` once per transaction
    boundary; this object answers with a chosen (possibly empty) action
    list instead of a scripted one, within the failure budget.
    """

    def __init__(
        self,
        controller: ChoiceController,
        site_ids: list[int],
        max_crashes: int = 1,
        max_recoveries: int = 1,
        min_up: int = 1,
        max_branch: int = 4,
    ) -> None:
        self.controller = controller
        self.site_ids = list(site_ids)
        self.max_crashes = max_crashes
        self.max_recoveries = max_recoveries
        self.min_up = min_up
        self.max_branch = max_branch
        self._up = set(site_ids)
        self._crashes = 0
        self._recoveries = 0
        # The options on offer, (labels after "txn N: ", dep keys, action
        # lists); they change only when a crash or recovery is taken.
        self._options: Optional[tuple[tuple[str, ...], tuple, tuple[list, ...]]] = None

    def _offer(self) -> tuple[tuple[str, ...], tuple, tuple[list, ...]]:
        options: list[tuple[str, tuple, list]] = [("no fault", ("none",), [])]
        if self._crashes < self.max_crashes and len(self._up) > self.min_up:
            for site in sorted(self._up):
                options.append(
                    (f"crash site {site}", ("crash", site), [FailSite(site)])
                )
        if self._recoveries < self.max_recoveries:
            for site in sorted(set(self.site_ids) - self._up):
                options.append(
                    (
                        f"recover site {site}",
                        ("recover", site),
                        [RecoverSite(site)],
                    )
                )
        labels, keys, actions = zip(*options[: self.max_branch])
        return labels, keys, actions

    def get(self, seq: int, default: Any = None) -> list:
        options = self._options
        if options is None:
            options = self._options = self._offer()
        labels, keys, actions = options
        if len(labels) < 2:
            return []
        pick = self.controller.choose(
            "fault", tuple([f"txn {seq}: {label}" for label in labels]), keys
        )
        if not pick:
            return []
        action = actions[pick][0]
        if isinstance(action, FailSite):
            self._up.discard(action.site_id)
            self._crashes += 1
        else:
            self._up.add(action.site_id)
            self._recoveries += 1
        self._options = None
        return actions[pick]
