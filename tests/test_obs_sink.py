"""repro.obs core: event types and the ring-buffered TraceSink."""

from repro.obs import EventKind, TraceEvent, TraceSink
from repro.obs.events import KIND_BY_VALUE


# -- events -------------------------------------------------------------------


def test_event_wire_roundtrip() -> None:
    event = TraceEvent(
        seq=3,
        t=12.5,
        kind=EventKind.MSG_SEND,
        site=1,
        txn=7,
        parent=2,
        args={"mtype": "commit", "dst": 0},
    )
    wire = event.to_wire()
    assert wire["kind"] == "msg.send"
    back = TraceEvent.from_wire(wire)
    assert back.to_wire() == wire


def test_every_kind_has_unique_wire_value() -> None:
    assert len(KIND_BY_VALUE) == len(EventKind)
    for kind in EventKind:
        assert KIND_BY_VALUE[kind.value] is kind


def test_describe_is_single_line() -> None:
    event = TraceEvent(seq=1, t=0.0, kind=EventKind.TXN_BEGIN, site=0, txn=1)
    assert "\n" not in event.describe()
    assert "txn.begin" in event.describe()


# -- sink ---------------------------------------------------------------------


def test_disabled_sink_records_nothing_and_returns_minus_one() -> None:
    sink = TraceSink()
    assert not sink.enabled
    ref = sink.emit(1.0, EventKind.TXN_BEGIN, site=0, txn=1)
    assert ref == -1
    assert len(sink) == 0
    assert sink.dropped_events == 0


def test_enabled_sink_assigns_dense_seq_and_returns_it() -> None:
    sink = TraceSink(enabled=True)
    a = sink.emit(1.0, EventKind.TXN_BEGIN, site=0, txn=1)
    b = sink.emit(2.0, EventKind.TXN_END, site=0, txn=1, elapsed=1.0)
    assert (a, b) == (0, 1)
    events = list(sink)
    assert [e.seq for e in events] == [0, 1]
    assert events[1].args["elapsed"] == 1.0


def test_parent_defaults_to_current_scope() -> None:
    sink = TraceSink(enabled=True)
    root = sink.emit(0.0, EventKind.MSG_RECV, site=0)
    sink.scope = root
    child = sink.emit(0.0, EventKind.TXN_BEGIN, site=0, txn=1)
    sink.scope = -1
    orphan = sink.emit(1.0, EventKind.TXN_END, site=0, txn=1)
    events = {e.seq: e for e in sink}
    assert events[child].parent == root
    assert events[orphan].parent == -1


def test_explicit_parent_overrides_scope() -> None:
    sink = TraceSink(enabled=True)
    sink.scope = 99
    ref = sink.emit(0.0, EventKind.MSG_DROP, site=1, parent=5)
    assert next(iter(sink)).parent == 5
    assert ref == 0


def test_ring_buffer_evicts_oldest() -> None:
    sink = TraceSink(capacity=4, enabled=True)
    for i in range(10):
        sink.emit(float(i), EventKind.TXN_BEGIN, site=0, txn=i)
    assert len(sink) == 4
    assert sink.dropped_events == 6
    assert [e.txn for e in sink] == [6, 7, 8, 9]  # newest survive
