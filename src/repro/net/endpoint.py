"""Endpoint base class and the handler execution model.

A site in mini-RAID is a process that sleeps until a message arrives, does
some work, sends some messages, and sleeps again.  We reproduce that shape:
an :class:`Endpoint` implements ``handle(ctx, msg)`` as a *synchronous*
function that mutates its own state, charges simulated CPU milliseconds via
``ctx.charge``, and queues outgoing messages via ``ctx.send``.  The network
then runs the accumulated cost on the shared CPU and releases the outgoing
messages when the work completes — so all timing falls out of the cost
model, while protocol code stays straight-line and testable.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.net.message import Message, MessageType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.net.network import Network


class HandlerContext:
    """Per-activation scratchpad: accumulated cost, outbox, timers."""

    __slots__ = (
        "network", "endpoint", "now", "cost", "outbox", "timers", "completions"
    )

    def __init__(
        self,
        network: "Network",
        endpoint: "Endpoint",
        cost: float = 0.0,
        now: Optional[float] = None,
    ) -> None:
        self.network = network
        self.endpoint = endpoint
        # Simulated time at which this activation began.  An activation
        # runs within one instant and no code keeps its context, so the
        # clock is read once — by the caller, when it has it at hand.
        self.now: float = network.scheduler.clock._now if now is None else now
        # A delivery starts at the receive cost, validated non-negative
        # when the network was built.
        self.cost = cost
        self.outbox: list[Message] = []
        # Lazily allocated: most activations set no timers or completions,
        # and a context is created for every delivered message.
        self.timers: Optional[list[tuple[float, Callable[["HandlerContext"], None]]]] = None
        self.completions: Optional[list[Callable[[], None]]] = None

    def charge(self, milliseconds: float) -> None:
        """Add processing cost to this activation."""
        if milliseconds < 0:
            raise ValueError(f"cannot charge negative time: {milliseconds}")
        self.cost += milliseconds

    def send(
        self,
        dst: int,
        mtype: MessageType,
        payload: Optional[dict[str, Any]] = None,
        txn_id: int = -1,
        session: int = -1,
    ) -> Message:
        """Queue a message; it leaves when this activation's work finishes."""
        # Positional: one Message per send.
        msg = Message(
            self.endpoint.site_id,
            dst,
            mtype,
            payload if payload is not None else {},
            txn_id,
            session,
        )
        self.outbox.append(msg)
        return msg

    def after(self, delay: float, fn: Callable[["HandlerContext"], None]) -> None:
        """Run ``fn`` in a fresh activation ``delay`` ms after this one ends."""
        if delay < 0:
            raise ValueError(f"negative timer delay: {delay}")
        if self.timers is None:
            self.timers = []
        self.timers.append((delay, fn))

    def on_done(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` (no new activation) when this activation's work ends."""
        if self.completions is None:
            self.completions = []
        self.completions.append(fn)


class Endpoint(abc.ABC):
    """A message-driven process attached to the network."""

    def __init__(self, site_id: int) -> None:
        self.site_id = site_id
        self.alive = True

    @abc.abstractmethod
    def handle(self, ctx: HandlerContext, msg: Message) -> None:
        """Process one delivered message."""

    def on_delivery_failed(self, ctx: HandlerContext, msg: Message) -> None:
        """Called when a message this endpoint sent could not be delivered
        (destination down or partitioned away).  Default: ignore."""

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return f"{type(self).__name__}(site={self.site_id}, {state})"
