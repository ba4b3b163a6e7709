"""First-class Zipf selection (repro.workload.zipf).

ZipfGenerator picks by bisection; the draw-for-draw equivalence test here
keeps the linear CDF scan it replaced as the reference, which is what
makes seeded runs reproducible across that change.
"""

import random
from bisect import bisect_left
from collections import Counter

import pytest

from repro.errors import WorkloadError
from repro.txn.operations import OpKind
from repro.workload.zipf import ZipfGenerator, ZipfWorkload


def linear_scan_pick_index(cdf, point):
    """The original linear CDF scan ZipfGenerator replaced."""
    for index, threshold in enumerate(cdf):
        if point <= threshold:
            return index
    return len(cdf) - 1


@pytest.fixture
def picker_rng() -> random.Random:
    return random.Random(31337)


def test_pick_index_matches_linear_scan(picker_rng):
    zipf = ZipfGenerator(list(range(200)), skew=0.9)
    for _ in range(5000):
        point = picker_rng.random()
        bisected = min(bisect_left(zipf._cdf, point), len(zipf) - 1)
        assert bisected == linear_scan_pick_index(zipf._cdf, point)


def test_pick_index_at_cdf_boundary_points():
    zipf = ZipfGenerator([10, 20, 30, 40], skew=1.0)

    class FixedDraw:
        def __init__(self, value):
            self.value = value

        def random(self):
            return self.value

    # A draw exactly on a CDF threshold selects that rank (<= semantics,
    # matching the scan); a draw of 1.0 clamps to the last rank even if
    # rounding left cdf[-1] fractionally below 1.0.
    for rank, threshold in enumerate(zipf._cdf):
        assert zipf.pick_index(FixedDraw(threshold)) == rank
    assert zipf.pick_index(FixedDraw(1.0)) == len(zipf) - 1
    assert zipf.pick_index(FixedDraw(0.0)) == 0


def test_pick_is_deterministic_per_seed():
    zipf = ZipfGenerator(list(range(50)), skew=0.8)
    rng_a, rng_b = random.Random(7), random.Random(7)
    assert [zipf.pick(rng_a) for _ in range(200)] == [
        zipf.pick(rng_b) for _ in range(200)
    ]
    # One draw per pick: the streams stay in lockstep the whole way.
    assert rng_a.getstate() == rng_b.getstate()


def test_higher_skew_concentrates_on_top_ranks(picker_rng):
    items = list(range(100))
    draws = 20_000
    top_share = {}
    for skew in (0.0, 0.8, 1.5):
        zipf = ZipfGenerator(items, skew)
        rng = random.Random(11)
        counts = Counter(zipf.pick_index(rng) for _ in range(draws))
        top_share[skew] = sum(counts[i] for i in range(10)) / draws
    # skew=0 is uniform: top-10 share ~10%; more skew -> more concentrated.
    assert top_share[0.0] == pytest.approx(0.10, abs=0.02)
    assert top_share[0.0] < top_share[0.8] < top_share[1.5]


def test_zero_skew_is_uniform_over_items(picker_rng):
    zipf = ZipfGenerator([5, 6, 7, 8], skew=0.0)
    counts = Counter(zipf.pick(picker_rng) for _ in range(8000))
    for item in (5, 6, 7, 8):
        assert counts[item] / 8000 == pytest.approx(0.25, abs=0.03)


def test_generator_rejects_bad_args():
    with pytest.raises(WorkloadError):
        ZipfGenerator([], skew=1.0)
    with pytest.raises(WorkloadError):
        ZipfGenerator([1, 2], skew=-0.1)


# -- ZipfWorkload -------------------------------------------------------------


def test_zipf_workload_ops_within_bounds(picker_rng):
    items = list(range(40, 90))
    workload = ZipfWorkload(items, max_txn_size=6, skew=0.8)
    for seq in range(200):
        ops = workload.generate(seq, picker_rng)
        assert 1 <= len(ops) <= 6
        for op in ops:
            assert op.item_id in set(items)
            assert op.kind in (OpKind.READ, OpKind.WRITE)


def test_zipf_workload_is_deterministic():
    items = list(range(30))
    make = lambda: ZipfWorkload(items, max_txn_size=4, skew=1.0)
    rng_a, rng_b = random.Random(777), random.Random(777)
    ops_a = [make().generate(i, rng_a) for i in range(50)]
    ops_b = [make().generate(i, rng_b) for i in range(50)]
    assert [
        [(o.kind, o.item_id) for o in txn] for txn in ops_a
    ] == [[(o.kind, o.item_id) for o in txn] for txn in ops_b]


def test_zipf_workload_rejects_bad_args():
    with pytest.raises(WorkloadError):
        ZipfWorkload([1], max_txn_size=0)
    with pytest.raises(WorkloadError):
        ZipfWorkload([1], max_txn_size=2, write_probability=1.5)


def test_zipf_workload_describe_names_shape():
    workload = ZipfWorkload(list(range(10)), max_txn_size=3, skew=0.8)
    assert "zipf-all" in workload.describe()
    assert "skew=0.8" in workload.describe()
