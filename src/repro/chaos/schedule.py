"""Randomized site-fault schedules.

Where :mod:`repro.system.scenario` scripts the paper's fixed timelines
("before transaction 101, site 0 was brought up"), this module *generates*
a timeline from a seeded stream: crashes, recoveries, partitions, and
heals sprinkled across the transaction sequence, subject to the validity
rules the managing site enforces (never fail a failed site, never recover
an up site, always keep ``MIN_UP_SITES`` believed up so there is a
coordinator to submit to).

The output is an ordinary :class:`~repro.system.scenario.Scenario`, so the
whole existing drive loop — managing site, submission policy, metrics —
runs unchanged under the generated schedule.
"""

from __future__ import annotations

from repro.chaos.faults import HEAL_RATE, FaultPlan
from repro.errors import ConfigurationError
from repro.sim.rng import RandomStream
from repro.system.config import SystemConfig
from repro.system.scenario import (
    FailSite,
    HealNetwork,
    PartitionNetwork,
    RecoverSite,
    Scenario,
    UniformRandom,
)

# Sites the schedule always keeps believed up, so there is a coordinator.
MIN_UP_SITES = 1


def build_chaos_scenario(
    config: SystemConfig,
    plan: FaultPlan,
    rng: RandomStream,
    txn_count: int = 60,
) -> Scenario:
    """Generate a randomized fail/recover/partition/heal scenario.

    Actions are drawn per transaction slot from ``plan``'s schedule rates.
    One crash is guaranteed in the first third of the run and held for
    ``plan.forced_hold_txns`` slots, so every seed commits transactions
    past a down site and exercises the fail-lock machinery the auditor
    watches.
    """
    plan.validate()
    if txn_count < 1:
        raise ConfigurationError(f"txn_count must be >= 1: {txn_count}")
    scenario = Scenario(txn_count=txn_count, policy=UniformRandom())
    sites = list(config.site_ids)
    if len(sites) <= MIN_UP_SITES:
        return scenario  # nothing can fail without starving the manager

    up = set(sites)
    down: set[int] = set()
    hold_until: dict[int, int] = {}
    partitioned = False
    # Mid-recovery partitions (plan.partition_mid_recovery) are scheduled
    # as a whole arc — partition, heal, rejoin — in one pass; no new
    # partition until the current arc completes, and the isolated site is
    # withheld from crash/recover rolls while the arc is in flight.
    partitioned_until = 0
    rejoin_site = -1
    rejoin_seq = 0

    forced_seq = rng.randint(2, max(2, txn_count // 3))

    for seq in range(1, txn_count + 1):
        if rejoin_site >= 0 and seq > rejoin_seq:
            up.add(rejoin_site)
            rejoin_site = -1
        if seq == forced_seq and len(up) > MIN_UP_SITES:
            # correlated_crashes > 1: the forced crash fells several sites
            # in this same slot (subject to MIN_UP_SITES), modelling a
            # rack/power-domain failure.  The first victim draw is shared
            # with the classic path so single-crash plans replay
            # byte-identically.
            for _ in range(plan.correlated_crashes):
                if len(up) <= MIN_UP_SITES:
                    break
                victim = rng.choice(sorted(up))
                scenario.add_action(seq, FailSite(victim))
                up.discard(victim)
                down.add(victim)
                hold_until[victim] = seq + plan.forced_hold_txns
            continue

        # Each action kind owns an exclusive slice of [0, 1); a failed
        # guard means "no action this slot", never a different action
        # (otherwise one kind's unusable probability mass would leak into
        # the next kind's slice).
        roll = rng.random()
        crash_hi = plan.crash_rate
        recover_hi = crash_hi + plan.recover_rate
        partition_hi = recover_hi + plan.partition_rate
        heal_hi = partition_hi + HEAL_RATE
        if roll < crash_hi:
            if len(up) > MIN_UP_SITES:
                victim = rng.choice(sorted(up))
                scenario.add_action(seq, FailSite(victim))
                up.discard(victim)
                down.add(victim)
        elif roll < recover_hi:
            eligible = [s for s in sorted(down) if seq >= hold_until.get(s, 0)]
            if eligible:
                riser = rng.choice(eligible)
                scenario.add_action(seq, RecoverSite(riser))
                down.discard(riser)
                up.add(riser)
                # Recovery-window scenarios.  Actions appended to the same
                # slot run right after the RecoverSite completes (the
                # drive loop pauses at RecoverSite until the type-1's
                # MGR_RECOVER_DONE), i.e. genuinely *inside* the riser's
                # recovery period.  Both branches draw randomness only
                # when their plan flag is set, so every pre-existing plan
                # replays byte-identically.
                if (
                    plan.partition_mid_recovery
                    and len(sites) >= 3
                    and seq > partitioned_until
                    and rejoin_site < 0
                ):
                    others = tuple(s for s in sites if s != riser)
                    scenario.add_action(
                        seq, PartitionNetwork(groups=((riser,), others))
                    )
                    heal_seq = min(txn_count, seq + 1 + rng.randint(0, 1))
                    scenario.add_action(heal_seq, HealNetwork())
                    # A partitioned-away site must REJOIN, not resume: its
                    # fail-lock table went silently stale while isolated
                    # (majority commits could not reach it), so post-heal
                    # it can neither trust its own view nor serve as a
                    # type-1 responder.  A fresh fail + type-1 discards
                    # the poisoned state — the runner pairs this plan
                    # with cold_recovery so isolated-side writes are
                    # discarded too rather than surviving as phantom
                    # versions no fail-lock covers.
                    scenario.add_action(heal_seq, FailSite(riser))
                    scenario.add_action(heal_seq, RecoverSite(riser))
                    up.discard(riser)
                    rejoin_site = riser
                    rejoin_seq = heal_seq
                    partitioned_until = heal_seq
                if (
                    plan.flap_rate > 0.0
                    and riser in up
                    and len(up) > MIN_UP_SITES
                    and rng.random() < plan.flap_rate
                ):
                    scenario.add_action(seq, FailSite(riser))
                    up.discard(riser)
                    down.add(riser)
                    hold_until[riser] = seq + 1 + rng.randint(0, 2)
        elif roll < partition_hi:
            if not partitioned and len(sites) >= 3:
                groups = _random_split(sites, rng)
                scenario.add_action(seq, PartitionNetwork(groups=groups))
                partitioned = True
        elif roll < heal_hi:
            if partitioned:
                scenario.add_action(seq, HealNetwork())
                partitioned = False

    return scenario


def _random_split(
    sites: list[int], rng: RandomStream
) -> tuple[tuple[int, ...], ...]:
    """Split ``sites`` into two non-empty partition groups."""
    shuffled = list(sites)
    rng.shuffle(shuffled)
    cut = rng.randint(1, len(shuffled) - 1)
    left = tuple(sorted(shuffled[:cut]))
    right = tuple(sorted(shuffled[cut:]))
    return (left, right)
