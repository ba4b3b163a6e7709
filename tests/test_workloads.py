"""Workload generators."""

import random

import pytest

from repro.errors import WorkloadError
from repro.soak.engine import SoakConfig
from repro.system.config import SystemConfig
from repro.txn.operations import OpKind
from repro.workload.et1 import Et1Workload
from repro.workload.shapes import DebitCreditWorkload
from repro.workload.uniform import UniformWorkload
from repro.workload.wisconsin import WisconsinWorkload
from repro.workload.zipf import ZipfWorkload


@pytest.fixture
def rng() -> random.Random:
    return random.Random(77)


ITEMS = list(range(50))


def test_uniform_respects_bounds(rng):
    wl = UniformWorkload(ITEMS, max_txn_size=5)
    for seq in range(100):
        ops = wl.generate(seq, rng)
        assert 1 <= len(ops) <= 5
        assert all(op.item_id in ITEMS for op in ops)


def test_uniform_covers_item_space(rng):
    wl = UniformWorkload(ITEMS, max_txn_size=10)
    touched = set()
    for seq in range(300):
        touched.update(op.item_id for op in wl.generate(seq, rng))
    assert len(touched) == len(ITEMS)


def test_uniform_validation():
    with pytest.raises(WorkloadError):
        UniformWorkload([], 5)
    with pytest.raises(WorkloadError):
        UniformWorkload(ITEMS, 0)


def test_readwrite_ratio(rng):
    wl = UniformWorkload(ITEMS, max_txn_size=8, write_probability=0.2)
    ops = [op for seq in range(500) for op in wl.generate(seq, rng)]
    writes = sum(1 for op in ops if op.kind is OpKind.WRITE)
    assert 0.15 < writes / len(ops) < 0.25


def test_readwrite_validation():
    with pytest.raises(WorkloadError):
        UniformWorkload(ITEMS, 5, write_probability=2.0)


def test_zipf_skews_to_low_ranks(rng):
    wl = ZipfWorkload(ITEMS, max_txn_size=4, skew=1.5)
    counts = {}
    for seq in range(2000):
        for op in wl.generate(seq, rng):
            counts[op.item_id] = counts.get(op.item_id, 0) + 1
    # The first-ranked item must dominate the median item.
    median_item = ITEMS[len(ITEMS) // 2]
    assert counts.get(ITEMS[0], 0) > 5 * counts.get(median_item, 1)


def test_zipf_zero_skew_roughly_uniform(rng):
    wl = ZipfWorkload(ITEMS, max_txn_size=4, skew=0.0)
    counts = dict.fromkeys(ITEMS, 0)
    for seq in range(3000):
        for op in wl.generate(seq, rng):
            counts[op.item_id] += 1
    values = sorted(counts.values())
    assert values[0] > 0
    assert values[-1] < 3 * values[0]


def test_zipf_validation():
    with pytest.raises(WorkloadError):
        ZipfWorkload([], 5)
    with pytest.raises(WorkloadError):
        ZipfWorkload(ITEMS, 5, skew=-1.0)


def test_et1_shape(rng):
    wl = Et1Workload(ITEMS)
    ops = wl.generate(1, rng)
    assert len(ops) == 7
    kinds = [op.kind for op in ops]
    assert kinds == [
        OpKind.READ, OpKind.WRITE,   # account
        OpKind.READ, OpKind.WRITE,   # teller
        OpKind.READ, OpKind.WRITE,   # branch
        OpKind.WRITE,                # history
    ]
    # Each touched item belongs to its region.
    assert ops[0].item_id in wl.accounts
    assert ops[2].item_id in wl.tellers
    assert ops[4].item_id in wl.branches
    assert ops[6].item_id in wl.history


def test_et1_regions_are_disjoint():
    wl = Et1Workload(ITEMS)
    regions = [set(wl.accounts), set(wl.tellers), set(wl.branches), set(wl.history)]
    union = set().union(*regions)
    assert len(union) == sum(len(r) for r in regions)
    assert union == set(ITEMS)


def test_et1_too_small_rejected():
    with pytest.raises(WorkloadError):
        Et1Workload(list(range(4)))


def test_wisconsin_mixes_scans_and_updates(rng):
    wl = WisconsinWorkload(ITEMS, scan_length=5, update_count=2, scan_fraction=0.5)
    saw_scan = saw_update = False
    for seq in range(100):
        ops = wl.generate(seq, rng)
        if all(op.kind is OpKind.READ for op in ops):
            saw_scan = True
            items = [op.item_id for op in ops]
            assert items == list(range(items[0], items[0] + 5))  # contiguous
        else:
            saw_update = True
            assert any(op.kind is OpKind.WRITE for op in ops)
    assert saw_scan and saw_update


def test_wisconsin_validation():
    with pytest.raises(WorkloadError):
        WisconsinWorkload(ITEMS, scan_length=0)
    with pytest.raises(WorkloadError):
        WisconsinWorkload(ITEMS, scan_length=51)
    with pytest.raises(WorkloadError):
        WisconsinWorkload(ITEMS, update_count=0)


def test_describe_strings():
    assert "uniform" in UniformWorkload(ITEMS, 5).describe()
    assert "et1" in Et1Workload(ITEMS).describe()
    assert "wisconsin" in WisconsinWorkload(ITEMS).describe()
    assert "zipf" in ZipfWorkload(ITEMS, 5).describe()


# -- soak-selectable benchmark mixes (shapes.py presets) ---------------------


def _op_trace(wl, seed, n=100):
    stream = random.Random(seed)
    return [
        [(op.kind, op.item_id) for op in wl.generate(seq, stream)]
        for seq in range(n)
    ]


def test_debitcredit_partitions_and_shape(rng):
    wl = DebitCreditWorkload(list(range(200)))
    assert (wl.branches, wl.tellers, wl.accounts) == (2, 18, 180)
    for seq in range(200):
        ops = wl.generate(seq, rng)
        assert len(ops) == 3
        assert all(op.kind is OpKind.WRITE for op in ops)
        # Disjoint partitions: the three items are always distinct, and
        # the branch write lands in the tiny hot set at the front.
        assert len({op.item_id for op in ops}) == 3
        assert ops[2].item_id < wl.branches


def test_debitcredit_hierarchy_is_pure_function(rng):
    # Same account ⇒ same teller and branch, across transactions.
    wl = DebitCreditWorkload(list(range(200)))
    seen = {}
    for seq in range(300):
        account, teller, branch = (op.item_id for op in wl.generate(seq, rng))
        assert seen.setdefault(account, (teller, branch)) == (teller, branch)


def test_debitcredit_determinism():
    wl = DebitCreditWorkload(list(range(150)))
    assert _op_trace(wl, seed=9) == _op_trace(wl, seed=9)
    assert _op_trace(wl, seed=9) != _op_trace(wl, seed=10)


def test_debitcredit_too_small_rejected():
    with pytest.raises(WorkloadError):
        DebitCreditWorkload([1, 2])


def _soak_wisconsin(items, read_fraction=0.7):
    """The Wisconsin mix a soak run builds, at a transaction cap of 5."""
    config = SoakConfig(workload="wisconsin", max_txn_size=5, read_fraction=read_fraction)
    return config.build_workload(SystemConfig(db_size=len(items), num_sites=3))


def test_wisconsin_mix_preset_configuration(rng):
    wl = _soak_wisconsin(ITEMS, read_fraction=0.7)
    assert wl.scan_length == 5
    assert wl.update_count == 1
    assert wl.scan_fraction == 0.7
    kinds = {
        "scan" if all(op.kind is OpKind.READ for op in wl.generate(seq, rng)) else "update"
        for seq in range(200)
    }
    assert kinds == {"scan", "update"}
    # Scan length is capped by the item space, not just max_txn_size.
    tiny = _soak_wisconsin(ITEMS[:3])
    assert tiny.scan_length == 3


def test_wisconsin_mix_determinism():
    wl = _soak_wisconsin(ITEMS)
    assert _op_trace(wl, seed=3) == _op_trace(wl, seed=3)
    assert _op_trace(wl, seed=3) != _op_trace(wl, seed=4)
