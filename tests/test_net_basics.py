"""Message, wire latency, and partitions."""

import pytest

from repro.errors import NetworkError
from repro.net.message import Message, MessageType
from repro.net.network import Network
from repro.net.partition import PartitionManager
from repro.sim.cpu import CpuResource
from repro.sim.scheduler import EventScheduler


# -- messages -----------------------------------------------------------------


def test_message_defaults():
    msg = Message(src=0, dst=1, mtype=MessageType.VOTE_REQ)
    assert msg.payload == {}
    assert msg.txn_id == -1
    assert msg.send_time == -1.0


# -- latency ---------------------------------------------------------------------


def test_constant_latency_rejects_negative():
    sched = EventScheduler()
    with pytest.raises(NetworkError):
        Network(scheduler=sched, cpu=CpuResource(sched), wire_latency_ms=-1.0)


# -- partitions --------------------------------------------------------------------


def test_no_partition_everyone_connected():
    pm = PartitionManager()
    assert all(pm.connected(a, b) for a in range(4) for b in range(4))


def test_partition_splits_groups():
    pm = PartitionManager()
    pm.partition([[0, 1], [2, 3]])
    assert pm.connected(0, 1)
    assert pm.connected(2, 3)
    assert not pm.connected(0, 2)
    assert not pm.connected(1, 3)


def test_self_always_connected():
    pm = PartitionManager()
    pm.partition([[0], [1]])
    assert pm.connected(0, 0)


def test_unlisted_sites_share_implicit_group():
    pm = PartitionManager()
    pm.partition([[0]])
    assert pm.connected(1, 2)
    assert not pm.connected(0, 1)


def test_heal_restores_connectivity():
    pm = PartitionManager()
    pm.partition([[0], [1]])
    pm.heal()
    assert pm.connected(0, 1)


def test_rejects_site_in_two_groups():
    pm = PartitionManager()
    with pytest.raises(NetworkError):
        pm.partition([[0, 1], [1, 2]])


def test_repartition_replaces():
    pm = PartitionManager()
    pm.partition([[0], [1, 2]])
    pm.partition([[0, 1], [2]])
    assert pm.connected(0, 1)
    assert not pm.connected(1, 2)
