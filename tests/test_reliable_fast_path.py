"""The reliable sublayer's fast paths against the contract they serve.

``ReliableDelivery`` takes shortcuts on its hottest paths: an in-order
arrival on a channel with nothing parked skips the reorder buffer, a
channel's receiver is created only on a miss, timers are armed from a
per-attempt timeout table, and ``Network._deliver`` hands a lone in-order
arrival straight to its endpoint.  The reference they are held to is the
property the transport owes, checked over seeded scripts on a real
network with three sites that send, crash and recover while an
interposer silently drops, bounces, duplicates, delays and reorders
messages (acks included) and for a while loses everything sent to one
site:

* each channel delivers each message at most once, in send order;
* every message is delivered, reported to its sender as undeliverable,
  or outlived by a crash of its sender (a dead sender retransmits
  nothing);
* once the network is quiet nothing is pending or parked, and every
  receiver's window has caught up with its sender — no slot wedges a
  channel (the skipped-slot wedge of lossy seed 455410715 is one case);
* transmission ``a`` of a message is followed by the next one
  ``RTO[a - 1]`` later, and the sender gives up after ``len(RTO)``
  transmissions.

The last test checks the network's inline eligibility test against
:meth:`ReliableDelivery.tracks` on a traced lossy chaos run.
"""

import random

import pytest

from repro.chaos import runner
from repro.chaos.faults import FaultPlan
from repro.net.endpoint import Endpoint
from repro.net.message import Message, MessageType
from repro.net.network import MessageFate, Network
from repro.net.reliable import RTO, ReliableDelivery
from repro.obs.events import EventKind
from repro.obs.sink import TraceSink
from repro.sim.cpu import CpuResource
from repro.sim.scheduler import EventScheduler
from repro.system.costs import CostModel


class Site(Endpoint):
    def __init__(self, site_id: int) -> None:
        super().__init__(site_id)
        self.received: list[Message] = []
        self.failures: list[Message] = []

    def handle(self, ctx, msg: Message) -> None:
        self.received.append(msg)

    def on_delivery_failed(self, ctx, msg: Message) -> None:
        self.failures.append(msg)


class SeededFaults:
    """Interposer: one seeded fate per transmission, acks included; and
    every transmission to site ``dark`` during ``DARK_MS`` is lost, long
    enough for a sender to give up."""

    DARK_MS = (100.0, 2600.0)

    def __init__(self, rng: random.Random, scheduler, dark: int) -> None:
        self.rng = rng
        self.scheduler = scheduler
        self.dark = dark

    def intercept(self, msg: Message):
        roll, amount = self.rng.random(), self.rng.uniform(0.0, 8.0)
        start, end = self.DARK_MS
        if msg.dst == self.dark and start <= self.scheduler.now < end:
            return MessageFate(drop=True, silent=True)
        if roll < 0.15:
            return MessageFate(drop=True, silent=True)
        if roll < 0.18:
            return MessageFate(drop=True)
        if roll < 0.28:
            return MessageFate(duplicate=True, duplicate_gap=amount)
        if roll < 0.38:
            return MessageFate(reorder=True, reorder_shift=amount)
        return MessageFate(delay=amount) if roll < 0.45 else None


class ObservedDelivery(ReliableDelivery):
    """The sublayer under test, noting what each skipped slot released."""

    __slots__ = ("skips",)

    def __init__(self, network) -> None:
        super().__init__(network)
        self.skips: list[tuple[bool, int]] = []  # (sender up, released)

    def _skip_at_receiver(self, msg: Message) -> None:
        channel = (msg.src, msg.dst)
        receiver = self._receivers.get(channel)
        parked = len(receiver.buffer) if receiver is not None else 0
        super()._skip_at_receiver(msg)
        released = parked - len(self._receivers[channel].buffer)
        self.skips.append((self.network._endpoints[msg.src].alive, released))


def run_script(seed: int, steps: int = 300):
    """Post a seeded script of sends, crashes and recoveries, run the
    network until it is quiet, and check the delivery contract."""
    rng = random.Random(seed)
    scheduler = EventScheduler()
    # The scripts are timed for 0.5-ms messages; the network reads its
    # message costs from the table when it is built.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CostModel, "msg_send_cost", 0.5)
        patch.setattr(CostModel, "msg_recv_cost", 0.5)
        net = Network(scheduler, CpuResource(scheduler, cores=3), 1.0)
    net.obs = TraceSink(enabled=True)
    net.reliable = layer = ObservedDelivery(net)
    net.interposer = SeededFaults(random.Random(seed + 1000), scheduler, seed % 3)
    sites = [Site(i) for i in range(3)]
    for site in sites:
        net.register(site)
    sent: dict[tuple[int, int], list[tuple[int, float]]] = {}
    crashed_at: dict[int, list[float]] = {i: [] for i in range(3)}

    def send(src: Site, dst: int, n: int) -> None:
        def activation(ctx) -> None:
            if src.alive:  # a down site sends nothing
                ctx.send(dst, MessageType.COMMIT, {"n": n}, txn_id=n)
                sent.setdefault((src.site_id, dst), []).append((n, ctx.now))
        net.spawn(src, activation)

    def set_alive(site: Site, alive: bool) -> None:
        if site.alive and not alive:
            crashed_at[site.site_id].append(scheduler.now)
        site.alive = alive

    at = 0.0
    for n in range(steps):
        at += rng.choice([0.0, 0.5, 1.0, 3.0, 8.0])
        op = rng.choices(["send", "crash", "recover"], weights=[14, 1, 2])[0]
        src, dst = rng.sample(sites, 2)
        if op == "send":
            scheduler.post(at, send, (src, dst.site_id, n))
        else:
            scheduler.post(at, set_alive, (src, op == "recover"))
    scheduler.run()

    for (src, dst), messages in sent.items():
        got = [m.payload["n"] for m in sites[dst].received if m.src == src]
        assert len(got) == len(set(got)), ("delivered twice", src, dst)
        assert got == [n for n, _ in messages if n in set(got)], ("order", src, dst)
        notified = {m.payload["n"] for m in sites[src].failures if m.dst == dst}
        for n, sent_at in messages:
            assert (
                n in got or n in notified or any(t >= sent_at for t in crashed_at[src])
            ), ("lost without a word", src, dst, n)
        receiver = layer._receivers[(src, dst)]
        assert (receiver.next_seq, receiver.buffer) == (len(messages), {}), (src, dst)
    assert layer.in_flight == 0

    transmissions: dict[int, list[float]] = {}
    for event in net.obs:
        if event.args.get("mtype") != "commit" or event.args.get("duplicate"):
            continue
        times = transmissions.setdefault(event.txn, [])
        if event.kind is EventKind.MSG_SEND and not times:
            times.append(event.t)
        elif event.kind is EventKind.MSG_RETRANSMIT:
            assert event.args["attempt"] == len(times) + 1
            assert event.t == pytest.approx(
                times[-1] + RTO[len(times) - 1]
            )
            times.append(event.t)
        elif event.kind is EventKind.MSG_GIVEUP:
            assert event.args["attempts"] == len(times) == len(RTO)
            assert event.t == pytest.approx(times[-1] + RTO[len(times) - 1])
    assert net.obs.dropped_events == 0
    return layer


@pytest.mark.parametrize("seed", range(12))
def test_fast_paths_match_the_reference(seed):
    run_script(seed)


def test_scripts_cover_every_skip_path():
    """Across the seeds the scripts park, suppress, retransmit and give
    up; slots are skipped for dead senders, and some skip releases parked
    traffic."""
    layers = [run_script(seed) for seed in range(12)]
    stats = [layer.stats for layer in layers]
    for field in ("buffered_out_of_order", "duplicates_suppressed",
                  "retransmissions", "gave_up"):
        assert sum(getattr(s, field) for s in stats) > 0, field
    skips = [skip for layer in layers for skip in layer.skips]
    assert any(not sender_up for sender_up, _ in skips)
    assert any(released > 0 for _, released in skips)


def test_tracked_equals_first_transmissions_tracks_accepts(monkeypatch):
    """On a traced lossy run, ``tracked`` counts exactly the first
    transmissions (``msg.send`` events that are neither a duplicate copy
    nor a retransmission) for which ``tracks()`` says yes."""
    built = []

    class RecordingCluster(runner.Cluster):
        def __init__(self, config):
            super().__init__(config)
            built.append(self)

    monkeypatch.setattr(runner, "Cluster", RecordingCluster)
    sink = TraceSink(enabled=True)
    result = runner.run_chaos_seed(455410715, txns=40, plan=FaultPlan.lossy(), trace=sink)
    assert sink.dropped_events == 0 and result.clean
    reliable = built[0].network.reliable
    retransmits = {e.seq for e in sink if e.kind is EventKind.MSG_RETRANSMIT}
    assert retransmits
    first_sends = [
        e
        for e in sink
        if e.kind is EventKind.MSG_SEND
        and not e.args.get("duplicate")
        and e.parent not in retransmits
    ]
    accepted = sum(
        reliable.tracks(
            Message(e.site, e.args["dst"], MessageType(e.args["mtype"]))
        )
        for e in first_sends
    )
    # Acks and the managing site's traffic are sent but never tracked.
    assert 0 < accepted < len(first_sends)
    assert reliable.stats.tracked == accepted
