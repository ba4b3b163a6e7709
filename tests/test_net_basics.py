"""Message, latency models, and partitions."""

import random

import pytest

from repro.errors import NetworkError
from repro.net.latency import ConstantLatency, UniformLatency
from repro.net.message import Message, MessageType
from repro.net.partition import PartitionManager


# -- messages -----------------------------------------------------------------


def test_message_defaults():
    msg = Message(src=0, dst=1, mtype=MessageType.VOTE_REQ)
    assert msg.payload == {}
    assert msg.txn_id == -1
    assert msg.send_time == -1.0


# -- latency ---------------------------------------------------------------------


def test_constant_latency():
    model = ConstantLatency(9.0)
    assert model.sample(0, 1, random.Random(1)) == 9.0


def test_constant_latency_rejects_negative():
    with pytest.raises(NetworkError):
        ConstantLatency(-1.0)


def test_uniform_latency_within_bounds():
    model = UniformLatency(2.0, 5.0)
    rng = random.Random(3)
    for _ in range(100):
        assert 2.0 <= model.sample(0, 1, rng) <= 5.0


def test_uniform_latency_rejects_bad_range():
    with pytest.raises(NetworkError):
        UniformLatency(5.0, 2.0)


# -- partitions --------------------------------------------------------------------


def test_no_partition_everyone_connected():
    pm = PartitionManager()
    assert pm.connected(0, 3)
    assert not pm.active


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
    assert not pm.active


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
