"""The 2PC rows no benchmark workload reaches, pinned end to end.

The benchmark workloads, the CLI commands and the examples commit almost
every transaction along the clean path: VOTE_ACKs, then COMMIT_ACKs.  The
runs here are built to enter the coordinator's and the participant's other
rows, one or two per run:

* a participant that perceives a newer coordinator session (VOTE_NACK);
* a copier source whose own copy is fail-locked (COPY_DENIED);
* a silently lost VOTE_REQ (the vote timeout) and a silently lost COMMIT
  (the COMMIT re-send);
* a participant whose every COMMIT is lost, so the re-sends run out and
  the coordinator drops it through the type-2 path;
* status inquiries answered "committed", "aborted" and "pending", and one
  where every answer is "unknown" (presumed abort);
* COPY_REQ, VOTE_REQ and COMMIT bouncing off a site that died.

Each run's outcomes, counters, final copies and fail-lock masks are
pinned (``conftest.pin``, ledger ``tests/pins.json``), and the last test
checks that every row of both roles' tables is entered by at least one
run.
"""

import pytest

from repro.errors import SimulationError
from repro.net.message import MessageType
from repro.net.network import MessageFate
from repro.site.coordinator import PHASE_TABLE, CommitPhase, CoordinatorRole
from repro.site.participant import PARTICIPANT_TABLE, ParticipantRole
from repro.system.cluster import Cluster
from repro.system.config import FailureDetection, SystemConfig
from repro.system.scenario import FixedSite, Scenario
from repro.txn.operations import OpKind, Operation
from repro.workload.base import WorkloadGenerator

from conftest import SETTLED, copies, messages


R, W = OpKind.READ, OpKind.WRITE


class Script(WorkloadGenerator):
    """Transaction ``n`` runs the ``n``-th operation list (cycling)."""

    def __init__(self, *txns):
        self.txns = [[Operation(kind, item) for kind, item in ops] for ops in txns]

    def generate(self, txn_seq, rng):
        return list(self.txns[(txn_seq - 1) % len(self.txns)])


class Drop:
    """Interposer that silently drops messages by (type, destination), up
    to each rule's limit (``None``: every one)."""

    def __init__(self, *rules):
        self.left = {(mtype, dst): limit for mtype, dst, limit in rules}

    def intercept(self, msg):
        key = (msg.mtype, msg.dst)
        if key not in self.left:
            return None
        left = self.left[key]
        if left is not None:
            if left == 0:
                return None
            self.left[key] = left - 1
        return MessageFate(drop=True, silent=True)


def kill_when(cluster, site_id, mtype, nth=1):
    """Mark ``site_id`` dead the instant the ``nth`` ``mtype`` message has
    been delivered or dropped (polled every simulated 0.1 ms)."""
    site = cluster.site(site_id)

    def poll():
        if len(messages(cluster, mtype, kinds=SETTLED)) >= nth:
            site.alive = False
            return
        cluster.scheduler.schedule(0.1, poll)

    cluster.scheduler.schedule(0.0, poll)


def timed(**overrides):
    """Three sites, fast test-sized timeouts, no transport retransmission."""
    base = dict(
        db_size=5,
        num_sites=3,
        max_txn_size=2,
        seed=1,
        wire_latency_ms=1.0,
        timeouts_enabled=True,
        vote_timeout_ms=50.0,
        commit_retry_ms=50.0,
        status_inquiry_ms=120.0,
    )
    base.update(overrides)
    return SystemConfig(**base)


def midflight():
    """Three sites under timeout failure detection, as in
    ``tests/test_midflight_failures.py``."""
    return SystemConfig(
        db_size=5,
        num_sites=3,
        max_txn_size=2,
        seed=1,
        detection=FailureDetection.TIMEOUT,
    )


def run(config, workload, txns, setup, stalls=False):
    """Run ``txns`` transactions, all coordinated by site 0, after
    ``setup(cluster)``.  ``stalls``: the coordinator dies mid-protocol, so
    the drive loop never hears the outcome and the run ends stalled."""
    cluster = Cluster(config)
    cluster.obs.enabled = True
    setup(cluster)
    scenario = Scenario(workload=workload, txn_count=txns, policy=FixedSite(0))
    if stalls:
        with pytest.raises(SimulationError):
            cluster.run(scenario)
    else:
        cluster.run(scenario)
    return cluster


def stale_everywhere(cluster, item, holder):
    """Every site records ``holder``'s copy of ``item`` as fail-locked."""
    for site in cluster.sites:
        site.faillocks.set_locks([item], holder)


def lose(*rules):
    """A setup that installs a :class:`Drop` of ``rules``."""

    def setup(cluster):
        cluster.network.interposer = Drop(*rules)

    return setup


# -- the runs -------------------------------------------------------------------


def vote_nack():
    """Site 1 perceives coordinator 0 on a newer session and refuses."""
    config = SystemConfig(db_size=4, num_sites=3, max_txn_size=2, seed=2)

    def setup(cluster):
        cluster.site(1).nsv.mark_up(0, session=5)

    return run(config, Script([(W, 1)]), 2, setup)


def copy_denied():
    """Site 0's copies of items 1 and 3 are stale everywhere; site 1 also
    holds its own copy of item 1 stale, which site 0 does not know.  The
    copier for item 1 is denied; the one for item 3 is answered."""

    def setup(cluster):
        stale_everywhere(cluster, 1, 0)
        stale_everywhere(cluster, 3, 0)
        cluster.site(1).faillocks.set_locks([1], 1)

    return run(timed(), Script([(R, 1)], [(R, 3), (W, 3)]), 2, setup)


def vote_timeout():
    """The VOTE_REQ to site 2 is lost once: the vote timer aborts."""
    setup = lose((MessageType.VOTE_REQ, 2, 1))
    return run(timed(), Script([(W, 1)]), 3, setup)


def commit_resend():
    """The COMMIT to site 2 is lost once: the commit timer re-sends it."""
    setup = lose((MessageType.COMMIT, 2, 1))
    return run(timed(), Script([(W, 1)]), 3, setup)


def commit_retries_exhausted():
    """Every COMMIT to site 2 is lost: past ``commit_max_retries``
    re-sends the coordinator drops site 2 through the type-2 path and
    commits among the survivors.  Site 2's late status inquiry is answered
    "committed" from the coordinator's decision log."""
    config = timed(commit_max_retries=2, status_inquiry_ms=1_000.0)
    setup = lose((MessageType.COMMIT, 2, None))
    cluster = run(config, Script([(W, 1)]), 2, setup)
    counters = cluster.metrics.counters
    assert counters.get("commit_retransmits") == 2
    assert counters.get("control_type2") >= 1
    assert counters.get("termination_committed") == 1
    return cluster


def coordinator_dies_mid_commit():
    """The coordinator dies with its COMMIT delivered to site 1 only: site
    2's inquiry bounces off it, then site 1 answers "committed"."""

    def setup(cluster):
        lose((MessageType.COMMIT, 2, 1))(cluster)
        kill_when(cluster, 0, MessageType.COMMIT, nth=2)

    cluster = run(timed(), Script([(W, 1)]), 1, setup, stalls=True)
    assert cluster.metrics.counters.get("termination_committed") == 1
    return cluster


def presumed_abort():
    """The coordinator dies after every COMMIT was lost: every candidate
    answers "unknown" or bounces, and the participants presume abort."""

    def setup(cluster):
        lose((MessageType.COMMIT, 1, None), (MessageType.COMMIT, 2, None))(cluster)
        kill_when(cluster, 0, MessageType.COMMIT, nth=2)

    cluster = run(timed(), Script([(W, 1)]), 1, setup, stalls=True)
    assert cluster.metrics.counters.get("termination_presumed_abort") >= 1
    return cluster


def pending_then_aborted():
    """Site 1 asks while the coordinator still waits for site 2's lost
    vote ("pending"), then again after the abort whose ABORT to site 1 was
    lost ("aborted")."""
    setup = lose((MessageType.VOTE_REQ, 2, 1), (MessageType.ABORT, 1, 1))
    cluster = run(timed(vote_timeout_ms=200.0), Script([(W, 1)]), 2, setup)
    assert cluster.metrics.counters.get("termination_aborted") == 1
    return cluster


def copy_req_bounce():
    """Copier source site 1 dies as the transaction arrives: the COPY_REQ
    bounces and the transaction aborts; the next one copies from site 2."""

    def setup(cluster):
        stale_everywhere(cluster, 1, 0)
        kill_when(cluster, 1, MessageType.MGR_SUBMIT_TXN, nth=1)

    return run(midflight(), Script([(R, 1)]), 3, setup)


def vote_req_bounce():
    """Participant 2 dies as phase one starts: its VOTE_REQ bounces."""

    def setup(cluster):
        kill_when(cluster, 2, MessageType.MGR_SUBMIT_TXN, nth=1)

    return run(midflight(), Script([(W, 1)]), 3, setup)


def commit_bounce():
    """Participant 2 dies after its vote: its COMMIT bounces."""

    def setup(cluster):
        kill_when(cluster, 2, MessageType.VOTE_ACK, nth=2)

    return run(midflight(), Script([(W, 1)]), 3, setup)


RUNS = {
    "vote_nack": vote_nack,
    "copy_denied": copy_denied,
    "vote_timeout": vote_timeout,
    "commit_resend": commit_resend,
    "commit_retries_exhausted": commit_retries_exhausted,
    "coordinator_dies_mid_commit": coordinator_dies_mid_commit,
    "presumed_abort": presumed_abort,
    "pending_then_aborted": pending_then_aborted,
    "copy_req_bounce": copy_req_bounce,
    "vote_req_bounce": vote_req_bounce,
    "commit_bounce": commit_bounce,
}


def outcome(cluster) -> dict:
    metrics = cluster.metrics
    return {
        "txns": [
            [r.txn_id, r.coordinator, r.committed, r.abort_reason.value, r.finished_at]
            for r in metrics.txns
        ],
        "counters": metrics.counters.as_dict(),
        "copies": [copies(site.db) for site in cluster.sites],
        "faillocks": [site.faillocks.snapshot() for site in cluster.sites],
    }


@pytest.mark.parametrize("name", sorted(RUNS))
def test_commit_phase_run_is_pinned(name, pin):
    pin(outcome(RUNS[name]()))


# -- the roles' tables -----------------------------------------------------------

# Each 2PC role's table, as (class, table, the site attribute holding the
# role, its rows without the handler name).  A coordinator row names the
# phase that accepts the input; a participant row needs only the input,
# which acts on a staged transaction.
TABLES = {
    "coordinator": (
        CoordinatorRole,
        PHASE_TABLE,
        "coordinator",
        [
            (CommitPhase.COPIER_WAIT, MessageType.COPY_RESP),
            (CommitPhase.COPIER_WAIT, MessageType.COPY_DENIED),
            (CommitPhase.VOTING, MessageType.VOTE_ACK),
            (CommitPhase.VOTING, MessageType.VOTE_NACK),
            (CommitPhase.VOTING, "vote_timeout"),
            (CommitPhase.COMMITTING, MessageType.COMMIT_ACK),
            (CommitPhase.COMMITTING, "commit_timeout"),
        ],
    ),
    "participant": (
        ParticipantRole,
        PARTICIPANT_TABLE,
        "participant",
        [
            (MessageType.TXN_STATUS_RESP,),
            ("status_timeout",),
            ("status_req_bounced",),
        ],
    ),
}


@pytest.mark.parametrize("role", sorted(TABLES))
def test_phase_table_declares_each_input_once(role):
    """A role's declaration, row by row: which message or timer it
    accepts (and, for the coordinator, in which phase).  Each input has
    one row and one handler."""
    cls, table, attribute, expected = TABLES[role]
    rows = [row[:-1] for row in table]
    assert rows == expected
    for row in table:
        assert callable(getattr(cls, row[-1]))
    site = Cluster(SystemConfig(db_size=4, num_sites=3, seed=1)).site(0)
    assert list(getattr(site, attribute).accept) == [row[-1] for row in rows]


@pytest.mark.parametrize("role", sorted(TABLES))
def test_every_declared_row_is_entered(monkeypatch, role):
    """Across the runs above, every row of the role's table has its
    handler run, the status inquiry gets every answer, and each protocol
    request bounces."""
    cls, table, _attribute, _expected = TABLES[role]
    entered = set()
    for row in table:

        def handler(self, *args, _row=row[:-1], _inner=getattr(cls, row[-1])):
            entered.add(_row)
            return _inner(self, *args)

        monkeypatch.setattr(cls, row[-1], handler)
    answers = set()
    on_status_resp = ParticipantRole.on_status_resp

    def on_answer(self, ctx, entry, msg):
        answers.add(msg.payload["status"])
        on_status_resp(self, ctx, entry, msg)

    monkeypatch.setattr(ParticipantRole, "on_status_resp", on_answer)
    bounced = set()
    on_delivery_failed = CoordinatorRole.on_delivery_failed

    def on_bounce(self, ctx, msg):
        bounced.add(msg.mtype)
        on_delivery_failed(self, ctx, msg)

    monkeypatch.setattr(CoordinatorRole, "on_delivery_failed", on_bounce)

    for build in RUNS.values():
        build()
    assert entered == {row[:-1] for row in table}
    assert answers == {"committed", "aborted", "pending", "unknown"}
    assert bounced == {
        MessageType.COPY_REQ,
        MessageType.VOTE_REQ,
        MessageType.COMMIT,
    }
