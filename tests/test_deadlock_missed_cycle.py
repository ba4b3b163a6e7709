"""The detector's known missed-cycle bug, pinned until it is fixed."""

import pytest

from repro.errors import SimulationError
from repro.system.config import SystemConfig
from repro.system.openloop import run_open_loop


@pytest.mark.xfail(strict=True, raises=SimulationError, reason="known missed cycle")
def test_overloaded_open_loop_drains_without_timeouts():
    """Above capacity a deadlock can outlive the detector and the
    open-loop source never drains (``bench/README.md``, "lock-storm runs
    with ``timeouts_enabled=True``": the reason that workload needs the
    2PC timeouts).  This is the ``concurrent`` bench preset — 400 txns at
    12 tps, timeouts off, no retries — on seed 2, the smallest of the 27
    seeds in 0..299 that stall; it stops at 223 of 400 outcomes.

    Every one of those 27 runs ends the same way: the detector's own
    graph still holds a cycle whose every edge is a current lock wait,
    and its suspect set is not empty.  ``block()`` reports at most one
    cycle and leaves the rest for the next ``block()``; when the
    survivors are all parked, none comes.  (The README blames edges that
    are not refreshed when a lock changes hands; such edges exist at the
    stall, but no current wait is missing from the graph.)

    The fix changes which transactions die, so it moves ``lock-storm``'s
    pinned digest and belongs to a correctness PR — which then deletes
    this marker.
    """
    result = run_open_loop(
        SystemConfig(seed=2, concurrency_control=True, timeouts_enabled=False),
        txn_count=400,
        arrival_rate_tps=12.0,
        deadlock_retries=0,
        keep_records=False,
    )
    assert result.commits + result.aborts == 400
