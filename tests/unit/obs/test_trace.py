"""Tracing layer: spans, ring buffer, JSONL export, engine hooks."""

import io
import json

import pytest

from repro import DuelSession, SimulatorBackend
from repro.core.statemachine import StateMachineEvaluator
from repro.obs.trace import (EMIT_BATCH, JsonlSink, NodeSpan, QueryTracer,
                             RingBufferSink, TraceSink, node_label)


def trace_generator(session, text, sink=None):
    """Drive ``text`` on the generator engine under a fresh tracer."""
    node = session.compile(text)
    session.evaluator.reset()
    tracer = QueryTracer(sink)
    tracer.begin(node, text)
    session.evaluator.set_tracer(tracer)
    try:
        values = list(session.evaluator.eval(node))
    finally:
        tracer.finish()
        session.evaluator.set_tracer(None)
    return node, tracer, values


def trace_machine(session, text, sink=None):
    """Drive ``text`` on the state-machine engine under a tracer."""
    node = session.compile(text)
    session.evaluator.reset()
    tracer = QueryTracer(sink)
    tracer.begin(node, text)
    session.evaluator.set_tracer(tracer)
    try:
        machine = StateMachineEvaluator(session.evaluator)
        values = list(machine.drive(node))
    finally:
        tracer.finish()
        session.evaluator.set_tracer(None)
    return node, tracer, values


class TestNodeSpans:
    def test_preorder_indices(self, session):
        node = session.compile("x[..10] >? 5")
        tracer = QueryTracer()
        tracer.begin(node, "x[..10] >? 5")
        assert [s.index for s in tracer.spans] == \
            list(range(len(tracer.spans)))
        assert tracer.spans[0].depth == 0
        assert all(s.depth > 0 for s in tracer.spans[1:])

    def test_labels_carry_symbolic_form(self, session):
        node = session.compile("x[3] + 5")
        tracer = QueryTracer()
        tracer.begin(node, "")
        labels = [s.label for s in tracer.spans]
        assert any("x" in label for label in labels)
        assert any("5" in label for label in labels)
        assert node_label(node) == tracer.spans[0].label

    def test_root_counts_pulls_and_yields(self, session):
        node, tracer, values = trace_generator(session, "x[..10] >? 5")
        root = tracer.span_for(node)
        assert values  # 7, 12, 120
        assert root.yields == len(values)
        # One pull per value plus the final exhausted pull.
        assert root.pulls == len(values) + 1
        assert root.time_ns > 0
        assert tracer.total_ns() == root.time_ns

    def test_reads_attributed_to_active_span(self, session):
        node, tracer, values = trace_generator(session, "x[..10] >? 5")
        assert sum(s.reads for s in tracer.spans) > 0

    def test_as_dict_shape(self):
        span = NodeSpan(3, "index", "index", 1)
        span.pulls, span.yields, span.time_ns = 4, 2, 1000
        record = span.as_dict()
        assert record == {"i": 3, "op": "index", "label": "index",
                          "depth": 1, "pulls": 4, "yields": 2,
                          "ns": 1000, "reads": 0, "writes": 0,
                          "calls": 0}


class TestRingBufferSink:
    def test_records_pull_yield_stream(self, session):
        sink = RingBufferSink()
        node, tracer, values = trace_generator(session, "(1..3)", sink)
        events = tracer.events()
        assert events[0] == ("pull", 0)
        assert events.count(("yield", 0)) == 3
        assert sink.queries == 1
        assert sink.dropped == 0

    def test_ring_drops_oldest(self):
        sink = RingBufferSink(capacity=4)
        for index in range(10):
            sink.emit("pull", index)
        assert sink.dropped == 6
        assert list(sink.events) == [("pull", i) for i in range(6, 10)]
        sink.clear()
        assert not sink.events and sink.dropped == 0

    def test_exactly_at_capacity_drops_nothing(self):
        sink = RingBufferSink(capacity=4)
        for index in range(4):
            sink.emit("pull", index)
        assert sink.dropped == 0
        assert list(sink.events) == [("pull", i) for i in range(4)]

    def test_one_past_capacity_evicts_exactly_one(self):
        sink = RingBufferSink(capacity=4)
        for index in range(5):
            sink.emit("pull", index)
        assert sink.dropped == 1
        assert list(sink.events) == [("pull", i) for i in range(1, 5)]

    def test_emit_many_accounts_like_one_emit_at_a_time(self):
        one, many = RingBufferSink(capacity=4), RingBufferSink(capacity=4)
        events = [("pull", i) for i in range(10)]
        for kind, index in events:
            one.emit(kind, index)
        many.emit_many(events[:3])
        many.emit_many(events[3:])
        assert list(many.events) == list(one.events)
        assert many.dropped == one.dropped == 6

    def test_batched_events_arrive_whole_and_in_order(self, session):
        """Several batches' worth of events: the sink gets every one,
        in order (the state machine's brackets give the same stream),
        and a small ring keeps the last of them and counts the rest."""
        text = "(1..1500) + 1"
        _node, tracer, _values = trace_generator(session, text,
                                                 RingBufferSink())
        total = sum(s.pulls + s.yields for s in tracer.spans)
        assert total > 3 * EMIT_BATCH
        events = tracer.events()
        assert len(events) == total and events[0] == ("pull", 0)
        _node, machine, _values = trace_machine(session, text,
                                                RingBufferSink())
        assert machine.events() == events
        ring = RingBufferSink(capacity=100)
        _node, tracer, _values = trace_generator(session, text, ring)
        assert tracer.events() == events[-100:]
        assert ring.dropped == total - 100

    def test_base_sink_drops_everything(self, session):
        node, tracer, values = trace_generator(session, "(1..3)",
                                               TraceSink())
        assert tracer.events() == []       # not a ring buffer
        assert tracer.span_for(node).yields == 3


class TestJsonlSink:
    def test_schema(self, session):
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        trace_generator(session, "(1..3)+(5,9)", sink)
        records = [json.loads(line)
                   for line in buffer.getvalue().splitlines()]
        header = records[0]
        assert header["ev"] == "query"
        assert header["q"] == 1
        assert header["text"] == "(1..3)+(5,9)"
        assert [n["i"] for n in header["nodes"]] == \
            list(range(len(header["nodes"])))
        kinds = {r["ev"] for r in records}
        assert kinds == {"query", "pull", "yield", "span"}
        spans = [r for r in records if r["ev"] == "span"]
        assert len(spans) == len(header["nodes"])
        assert spans[0]["yields"] == 6     # the paper's six values
        for event in records[1:]:
            assert event["q"] == 1

    def test_query_numbers_increment(self, session):
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        trace_generator(session, "(1..2)", sink)
        trace_generator(session, "(3..4)", sink)
        headers = [json.loads(line)
                   for line in buffer.getvalue().splitlines()
                   if '"query"' in line]
        assert [h["q"] for h in headers] == [1, 2]

    def test_close_only_closes_owned_streams(self, tmp_path):
        buffer = io.StringIO()
        JsonlSink(buffer).close()
        assert not buffer.closed
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(str(path))
        sink.close()
        assert path.exists()

    def test_flush_pushes_records_to_disk(self, tmp_path, session):
        """``flush`` makes every record visible without closing — the
        hook interrupt handling relies on (base sinks no-op it)."""
        TraceSink().flush()                # harmless on the base class
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(str(path))
        trace_generator(session, "(1..3)", sink)
        sink.flush()
        lines = path.read_text().splitlines()
        assert any('"span"' in line for line in lines)
        sink.close()


class TestEngineHooks:
    """The SM bracket hooks must mirror the generator wrapper."""

    def test_same_span_totals(self, session):
        _, gen, gen_values = trace_generator(session, "x[..10] >? 5")
        _, sm, sm_values = trace_machine(session, "x[..10] >? 5")
        assert [v.sym.render(6) for v in gen_values] == \
            [v.sym.render(6) for v in sm_values]
        assert [(s.pulls, s.yields) for s in gen.spans] == \
            [(s.pulls, s.yields) for s in sm.spans]

    def test_same_event_stream(self, session):
        _, gen, _ = trace_generator(session, "head-->next->value",
                                    RingBufferSink())
        _, sm, _ = trace_machine(session, "head-->next->value",
                                 RingBufferSink())
        assert gen.events() == sm.events()

    def test_error_unwinds_stack(self, session):
        node = session.compile("*(int*)0")
        session.evaluator.reset()
        tracer = QueryTracer()
        tracer.begin(node, "")
        session.evaluator.set_tracer(tracer)
        try:
            with pytest.raises(Exception):
                list(session.evaluator.eval(node))
        finally:
            session.evaluator.set_tracer(None)
        assert tracer._stack == []


class TestSessionTracing:
    def test_trace_on_keeps_last_trace(self, session):
        session.tracing = True
        out = io.StringIO()
        session.duel("x[..10] >? 5", out=out)
        assert session.last_query.tracer is not None
        assert session.last_query.tracer.spans[0].yields == 3
        # Without --trace-json no event is kept: no command shows them.
        assert session.last_query.tracer.sink is None

    def test_trace_off_records_nothing(self, session):
        out = io.StringIO()
        session.duel("x[..10] >? 5", out=out)
        assert session.last_query.tracer is None
        assert session.evaluator.tracer is None

    def test_tracer_detached_after_query(self, session):
        session.tracing = True
        session.duel("x[3]", out=io.StringIO())
        assert session.evaluator.tracer is None
        assert session.evaluator.backend.tracer is None


class TestJsonlSinkFsync:
    def test_fsync_called_on_end_query(self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr("os.fsync", lambda fd: synced.append(fd))
        sink = JsonlSink(str(tmp_path / "trace.jsonl"), fsync=True)
        sink.begin_query("x[0]", [])
        sink.end_query([])
        sink.close()
        assert len(synced) >= 2            # end_query + close

    def test_fsync_off_by_default(self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr("os.fsync", lambda fd: synced.append(fd))
        sink = JsonlSink(str(tmp_path / "trace.jsonl"))
        sink.begin_query("x[0]", [])
        sink.end_query([])
        sink.close()
        assert synced == []

    def test_fsync_tolerates_in_memory_streams(self):
        sink = JsonlSink(io.StringIO(), fsync=True)
        sink.begin_query("x[0]", [])
        sink.end_query([])
        sink.close()
