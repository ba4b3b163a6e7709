"""RecoveryManager: lifecycle, bookkeeping; the three recovery-policy objects."""

from types import SimpleNamespace

import pytest

from repro.core.faillocks import FailLockTable
from repro.core.recovery import (
    OnDemandRecovery,
    RecoveryManager,
    RecoveryPolicy,
    TwoStepRecovery,
)
from repro.net.message import Message, MessageType
from repro.site.site import BATCH_COPIER_TXN
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig

from conftest import messages


def make(policy=RecoveryPolicy.ON_DEMAND, threshold=0.2, batch_size=5, stale=()):
    locks = FailLockTable(site_ids=[0, 1], item_ids=range(10))
    for item in stale:
        locks.set_lock(item, 0)
    manager = RecoveryManager(
        owner=0,
        faillocks=locks,
        policy=policy,
        batch_threshold=threshold,
        batch_size=batch_size,
    )
    return locks, manager


def policy(cls, manager):
    """A policy object over ``manager``: the two-step decisions read only
    the site's recovery manager and its in-flight batches."""
    return cls(SimpleNamespace(recovery=manager, _batch_pending={}))


def test_begin_records_initial_stale():
    _locks, manager = make(stale=[1, 2, 3])
    manager.begin(time=10.0)
    assert manager.in_recovery
    assert manager.stats.initial_stale == 3
    assert manager.stale_count == 3
    assert manager.stale_items() == [1, 2, 3]
    assert manager.stale_fraction() == pytest.approx(0.3)


def test_begin_with_nothing_stale_completes_immediately():
    _locks, manager = make()
    manager.begin(time=5.0)
    assert not manager.in_recovery
    assert manager.stats.complete
    assert manager.stats.finished_at == 5.0


def test_completion_when_locks_clear():
    locks, manager = make(stale=[4])
    manager.begin(time=0.0)
    locks.clear_lock(4, 0)
    manager.note_refreshed_by_write(1, time=7.0)
    assert not manager.in_recovery
    assert manager.stats.finished_at == 7.0
    assert manager.stats.refreshed_by_write == 1


def test_copier_bookkeeping():
    locks, manager = make(stale=[1, 2])
    manager.begin(time=0.0)
    manager.note_copier_request()
    manager.note_copier_request(batch=True)
    locks.clear_lock(1, 0)
    locks.clear_lock(2, 0)
    manager.note_refreshed_by_copier(2, time=3.0)
    assert manager.stats.copier_requests == 2
    assert manager.stats.batch_copier_requests == 1
    assert manager.stats.refreshed_by_copier == 2
    assert manager.stats.complete


def test_on_demand_never_wants_batch():
    _locks, manager = make(threshold=1.0, stale=[1])
    manager.begin(time=0.0)
    assert policy(OnDemandRecovery, manager).pump(ctx=None) == {}


def test_two_step_waits_for_threshold():
    locks, manager = make(policy=RecoveryPolicy.TWO_STEP, threshold=0.2,
                          stale=[0, 1, 2, 3, 4])
    two_step = policy(TwoStepRecovery, manager)
    manager.begin(time=0.0)
    assert manager.stale_fraction() == 0.5
    assert not two_step.wants_batch_copier()  # 50% > 20% threshold
    for item in (0, 1, 2):
        locks.clear_lock(item, 0)
    manager.note_refreshed_by_write(3, time=1.0)
    assert manager.stale_fraction() == 0.2
    assert two_step.wants_batch_copier()


def test_two_step_stops_when_done():
    locks, manager = make(policy=RecoveryPolicy.TWO_STEP, threshold=1.0, stale=[1])
    two_step = policy(TwoStepRecovery, manager)
    manager.begin(time=0.0)
    assert two_step.wants_batch_copier()
    locks.clear_lock(1, 0)
    manager.note_refreshed_by_copier(1, time=1.0)
    assert not two_step.wants_batch_copier()


def test_next_batch_respects_size():
    _locks, manager = make(policy=RecoveryPolicy.TWO_STEP, threshold=1.0,
                           batch_size=2, stale=[5, 1, 3])
    manager.begin(time=0.0)
    assert policy(TwoStepRecovery, manager).next_batch() == [1, 3]


def test_validation():
    locks = FailLockTable(site_ids=[0], item_ids=range(2))
    with pytest.raises(ValueError):
        RecoveryManager(0, locks, batch_threshold=1.5)
    with pytest.raises(ValueError):
        RecoveryManager(0, locks, batch_size=0)


# -- the policy objects at a site ----------------------------------------------


def recovering_site(recovery_policy):
    """Site 0 of three, in a recovery period with items 0-2 stale and a
    batch for them in flight to donor 1."""
    config = SystemConfig(
        db_size=6, num_sites=3, seed=1, recovery_policy=recovery_policy,
        batch_threshold=1.0,
    )
    cluster = Cluster(config)
    cluster.obs.enabled = True
    site = cluster.site(0)
    for item in (0, 1, 2):
        site.faillocks.set_lock(item, 0)
    site.recovery.begin(0.0)
    site._batch_pending[1] = [0, 1, 2]
    # Everything stale is in flight: the pump opens the recovery epoch and
    # plans nothing more.
    assert site.recovery_policy.pump(ctx=None) == {}
    return cluster, site


def deliver(cluster, site, mtype, src):
    msg = Message(src=src, dst=site.site_id, mtype=mtype, txn_id=BATCH_COPIER_TXN)
    cluster.network.spawn(site, lambda ctx: site.handle(ctx, msg))
    cluster.scheduler.run()


@pytest.mark.parametrize(
    "recovery_policy, replanned_to",
    [
        (RecoveryPolicy.ON_DEMAND, []),
        (RecoveryPolicy.TWO_STEP, []),      # waits for the next trigger
        (RecoveryPolicy.PARALLEL, [2]),     # at once, around the denier
    ],
    ids=lambda v: getattr(v, "value", None),
)
def test_a_batch_denial_replans_at_once_only_under_parallel(
    recovery_policy, replanned_to
):
    cluster, site = recovering_site(recovery_policy)
    deliver(cluster, site, MessageType.COPY_DENIED, src=1)
    sent = messages(cluster, MessageType.COPY_REQ, txn=BATCH_COPIER_TXN)
    assert [event.args["dst"] for event in sent] == replanned_to
    assert 1 not in site._batch_pending


@pytest.mark.parametrize(
    "recovery_policy, before, after",
    [
        (RecoveryPolicy.ON_DEMAND, (), ()),
        (RecoveryPolicy.TWO_STEP, (), ()),
        (RecoveryPolicy.PARALLEL, (((1,), True),), (((), False),)),
    ],
    ids=lambda v: getattr(v, "value", None),
)
def test_a_crash_resets_the_policy_state(recovery_policy, before, after):
    cluster, site = recovering_site(recovery_policy)
    deliver(cluster, site, MessageType.COPY_DENIED, src=1)
    assert site.recovery_policy.signature() == before
    signature = site.signature()  # ends with what the policy appends
    assert signature[len(signature) - len(before):] == before
    deliver(cluster, site, MessageType.MGR_FAIL, src=3)
    assert site.recovery_policy.signature() == after
