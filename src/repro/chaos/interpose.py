"""The fault interposition layer.

:class:`FaultInjector` implements the network's
:class:`~repro.net.network.MessageInterposer` hook: for every non-exempt
message the network is about to transmit, it rolls the seeded chaos stream
against the :class:`~repro.chaos.faults.FaultPlan` and returns a
:class:`~repro.net.network.MessageFate` — drop the message (with the same
sender-notification semantics as a partition), deliver a duplicate, add
latency jitter, or (opt-in) deliver early, breaking per-channel FIFO.

Because the injector draws from a named stream of the cluster's
:class:`~repro.sim.rng.DeterministicRng` and the scheduler fires events in
a deterministic order, a (seed, plan) pair always injects the identical
fault sequence — chaos runs replay exactly.
"""

from __future__ import annotations

from typing import Optional

from repro.chaos.faults import DROPPABLE, DUPLICABLE, FaultPlan, FaultStats
from repro.net.message import Message
from repro.net.network import MessageFate
from repro.sim.rng import RandomStream

# A duplicate trails its original by up to this much; a reordered message
# is held back by up to this much.
DUPLICATE_GAP_MS = 5.0
REORDER_WINDOW_MS = 50.0


class FaultInjector:
    """Seeded message-fault decisions, one per transmitted message."""

    def __init__(self, plan: FaultPlan, rng: RandomStream) -> None:
        plan.validate()
        self.plan = plan
        self._rng = rng
        self.stats = FaultStats()

    def intercept(self, msg: Message) -> Optional[MessageFate]:
        """The network's interposition hook (see ``Network._release_activation``).

        Under the full fault model (``full_fault_model``) any message type is
        fair game, transport acks (``NET_ACK``) included: the conservative
        :data:`DROPPABLE` / :data:`DUPLICABLE` gates are not consulted, and
        a drop is *silent* — no sender failure notice, exactly like a real
        lossy network — which is only survivable because the cluster runs
        the retransmission sublayer and the 2PC termination protocol.
        """
        plan = self.plan
        rng = self._rng
        mtype = msg.mtype
        lossy = plan.full_fault_model

        if (lossy or mtype in DROPPABLE) and rng.random() < plan.drop_rate:
            self.stats.note("dropped", mtype)
            return MessageFate(drop=True, silent=lossy)

        fate: Optional[MessageFate] = None
        if (lossy or mtype in DUPLICABLE) and rng.random() < plan.duplicate_rate:
            fate = MessageFate()
            fate.duplicate = True
            fate.duplicate_gap = rng.uniform(0.0, DUPLICATE_GAP_MS)
            self.stats.note("duplicated", mtype)
        if plan.delay_rate > 0.0 and rng.random() < plan.delay_rate:
            fate = fate if fate is not None else MessageFate()
            fate.delay = rng.uniform(0.0, plan.delay_max_ms)
            self.stats.note("delayed", mtype)
        if plan.reorder_rate > 0.0 and rng.random() < plan.reorder_rate:
            fate = fate if fate is not None else MessageFate()
            fate.reorder = True
            fate.reorder_shift = rng.uniform(0.0, REORDER_WINDOW_MS)
            self.stats.note("reordered", mtype)
        return fate

    def __repr__(self) -> str:
        return f"FaultInjector(injected={self.stats.total})"
