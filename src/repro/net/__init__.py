"""Reliable message-passing substrate.

The paper assumes (its §1.2 assumption 1) a reliable transport: no loss, no
reordering, no corruption.  This package provides exactly that — FIFO
channels between registered endpoints — plus the pieces the paper's testbed
had implicitly: a fixed wire latency and a CPU cost for each communication
(measured at 9 ms per inter-site message in mini-RAID), and partition
injection for the network-partition scenarios the protocol is designed to
survive.  The
network keeps three counters (sent, delivered, undeliverable) and owns the
run's structured-trace sink (:class:`repro.obs.sink.TraceSink`, off by
default), which is the one per-message record: with
``cluster.obs.enabled = True`` every send, delivery, drop, and handler
activation is recorded with causal parent links — see :mod:`repro.obs` and
docs/OBSERVABILITY.md ("Counting messages").

When the network itself is allowed to lose messages (the chaos layer's
``lossy-core`` preset), :mod:`repro.net.reliable` rebuilds the reliable
abstraction on top: per-channel sequence numbers, receiver-side dedup and
reordering, and sender-side ack tracking with exponential-backoff
retransmission — all driven by the deterministic event scheduler.
"""

from repro.net.message import Message, MessageType
from repro.net.endpoint import Endpoint, HandlerContext
from repro.net.network import Network
from repro.net.partition import PartitionManager
from repro.net.reliable import ReliableDelivery, ReliableStats

__all__ = [
    "Message",
    "MessageType",
    "Endpoint",
    "HandlerContext",
    "Network",
    "PartitionManager",
    "ReliableDelivery",
    "ReliableStats",
]
