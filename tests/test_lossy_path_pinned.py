"""The lossy, audited path pinned end to end.

``chaos --mode lossy-core`` is the one configuration that runs the
reliable-delivery sublayer, the fault interposer and the invariant
auditor together.  These runs pin what those layers decide — every
violation the auditor flags, every check it counts, every transport and
fault count — so a host-only change to any of them must leave the
outcomes byte for byte where they are:

* the mutation self-test (fail-lock setting disabled) over seeds 40–45,
  under the conservative default plan and under the full lossy plan —
  the auditor must catch the planted bug through either fault model;
* lossy seeds in which skipping a sequence slot releases traffic the
  receiver had buffered behind it.

The digests are ``conftest.digest`` (blake2b-128 of canonical JSON).
"""

import sys

import pytest

from repro.chaos.faults import FaultPlan
from repro.chaos.runner import run_chaos_seed, run_seed_sweep
from repro.net.reliable import ReliableDelivery

from conftest import digest


def result_row(result) -> dict:
    """Everything a chaos seed decided, in a form JSON keeps in order."""
    faults = result.fault_stats
    net = result.net_stats
    return {
        "seed": result.seed,
        "commits": result.commits,
        "aborts": result.aborts,
        "sim_time_ms": result.sim_time_ms,
        "stalled": result.stalled,
        "violations": [
            [v.invariant, v.description, v.txn_id, v.site_id, v.item_id]
            for v in result.violations
        ],
        "checks": result.checks,
        "events_fired": result.events_fired,
        "reliable": None if net is None else [
            net.tracked,
            net.retransmissions,
            net.acks_sent,
            net.duplicates_suppressed,
            net.buffered_out_of_order,
            net.gave_up,
        ],
        "faults": [
            faults.dropped,
            faults.duplicated,
            faults.delayed,
            faults.reordered,
            # Insertion order is part of what is pinned.
            list(faults.by_type.items()),
        ],
    }


MUTATION_SWEEP_PINS = {
    "default": "1e1e109d93ea0e23a8d04f6a8b987489",
    "lossy": "eec9255484457eb4173a1a154a738c02",
}

_PLANS = {"default": FaultPlan, "lossy": FaultPlan.lossy}


@pytest.mark.parametrize("plan", sorted(MUTATION_SWEEP_PINS))
def test_mutation_sweep_is_pinned(plan):
    report = run_seed_sweep(range(40, 46), mutate=True, plan=_PLANS[plan]())
    # The auditor catches the planted fail-lock bug under either model.
    assert report.total_violations and not report.stalled_seeds
    rows = [result_row(result) for result in report.results]
    assert digest(rows) == MUTATION_SWEEP_PINS[plan]


# (seed, txns) -> (the path that skipped the slot, pin).
RELEASE_PINS = {
    (801, 200): ("cancel", "3782d27b52efc43146b5f127cbb9cf20"),
    (455409212, 80): ("_on_timer", "4de2010dd3d927f74a667009163e46cf"),
}


@pytest.mark.parametrize("seed, txns", sorted(RELEASE_PINS))
def test_skipped_slot_releasing_buffered_traffic_is_pinned(seed, txns, monkeypatch):
    """The two lossy seeds found in which a skipped sequence slot frees
    traffic the receiver had parked behind it (``_skip_at_receiver`` →
    ``advance`` → delivery from inside the skip).  In both, a transmission
    goes missing and its channel successor arrives first and is buffered.

    * Seed 801 at 200 txns: the missing one bounces off its down
      destination, and the bounce cancels it.  It is the only such seed in
      0–1199 at 200 txns.
    * Seed 455409212 at 80 txns (the bench's shape): the missing one was
      lost, and its sender dies before the retransmission timer fires.
      The timer finds a dead sender and skips the slot.  It is the only
      seed of the 4,000 in 455409000–455410999 and 1000000–1001999 that
      releases anything from a skip.

    No give-up released anything in any seed searched: give-ups are rare,
    and their slot is rarely the head of a window with traffic parked
    behind it."""
    releases = []
    skip = ReliableDelivery._skip_at_receiver

    def counting_skip(self, msg):
        receiver = self._receivers.get((msg.src, msg.dst))
        before = len(receiver.buffer) if receiver is not None else 0
        caller = sys._getframe(1).f_code.co_name
        skip(self, msg)
        released = before - len(self._receivers[msg.src, msg.dst].buffer)
        if released:
            releases.append((caller, released))

    monkeypatch.setattr(ReliableDelivery, "_skip_at_receiver", counting_skip)
    result = run_chaos_seed(seed, txns=txns, plan=FaultPlan.lossy())
    path, pin = RELEASE_PINS[seed, txns]
    assert releases == [(path, 1)]
    assert result.net_stats.buffered_out_of_order
    assert result.clean and not result.stalled
    assert digest(result_row(result)) == pin
