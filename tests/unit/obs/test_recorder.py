"""Flight recorder: bounded memory, dump triggers, post-mortem shape."""

import io
import json
import os

import pytest

from repro import DuelSession, SimulatorBackend, TargetProgram
from repro.core.errors import (DuelMemoryError, DuelNameError,
                               DuelSyntaxError, DuelTargetError)
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import DUMP_VERSION, FlightRecorder, should_dump
from repro.target import builder


def array_session(**kwargs):
    program = TargetProgram()
    builder.int_array(program, "x", [3, -1, 7, 0, 12, -9, 2, 120, 5, -4])
    return DuelSession(SimulatorBackend(program),
                       metrics=MetricsRegistry(), **kwargs)


class TestBoundedMemory:
    def test_holds_at_most_capacity_after_many_records(self):
        recorder = FlightRecorder(capacity=5)
        for index in range(5 + 13):
            recorder.record({"qid": index})
        assert len(recorder.entries) == 5
        assert recorder.recorded == 18
        assert [e["qid"] for e in recorder.entries] == list(range(13, 18))

    def test_recorder_bounded_after_n_plus_k_session_queries(self):
        """The recorder holds ≤ N queries after N+k runs — driven
        through the real session, not synthetic records."""
        capacity = 4
        session = array_session()
        session.recorder = FlightRecorder(capacity=capacity)
        out = io.StringIO()
        for index in range(capacity + 7):
            session.duel(f"x[{index % 10}]", out=out)
        recorder = session.recorder
        assert len(recorder.entries) == capacity
        assert recorder.recorded == capacity + 7
        assert [e["text"] for e in recorder.entries] == \
            [f"x[{i % 10}]" for i in range(7, 11)]

    def test_event_ring_clipped_per_entry(self):
        recorder = FlightRecorder(capacity=2, ring_capacity=3)
        recorder.record({"qid": 1,
                         "events": [["pull", i] for i in range(10)]})
        (entry,) = recorder.entries
        assert entry["events"] == [["pull", 7], ["pull", 8], ["pull", 9]]
        assert entry["events_clipped"] is True

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


class TestShouldDump:
    def test_triggers(self):
        assert should_dump("truncated")
        assert should_dump("cancelled")
        assert should_dump("faulted", DuelTargetError("boom"))
        assert should_dump("faulted",
                           DuelMemoryError("x", "x->y", "x", "0x0"))

    def test_non_triggers(self):
        assert not should_dump("drained")
        assert not should_dump("rejected", DuelSyntaxError("bad"))
        assert not should_dump("faulted", DuelNameError("typo"))


class TestDump:
    def test_requires_a_directory(self):
        recorder = FlightRecorder()
        with pytest.raises(ValueError):
            recorder.dump("manual")

    def test_artifact_is_self_contained(self, tmp_path):
        recorder = FlightRecorder(capacity=8, dump_dir=str(tmp_path),
                                  clock=lambda: 99.0)
        recorder.record({"qid": 1, "text": "x[0]", "outcome": "drained"})
        session = array_session()
        path = recorder.dump("unit test", metrics=session.metrics,
                             governor=session.governor)
        artifact = json.loads(open(path).read())
        assert artifact["version"] == DUMP_VERSION
        assert artifact["reason"] == "unit test"
        assert artifact["dumped_at"] == 99.0
        assert artifact["queries"] == [
            {"qid": 1, "text": "x[0]", "outcome": "drained"}]
        assert "counters" in artifact["metrics"]
        assert artifact["limits"]["steps"] == 10_000_000
        assert artifact["policies"]["steps"] == "truncate"

    def test_dump_files_are_sequenced(self, tmp_path):
        recorder = FlightRecorder(dump_dir=str(tmp_path))
        first = recorder.dump("one")
        second = recorder.dump("two")
        assert first.endswith("duel-postmortem-0001.json")
        assert second.endswith("duel-postmortem-0002.json")
        assert recorder.dumps == 2

    def test_explicit_directory_overrides_configured(self, tmp_path):
        recorder = FlightRecorder(dump_dir=str(tmp_path / "a"))
        path = recorder.dump("manual", dump_dir=str(tmp_path / "b"))
        assert os.path.dirname(path) == str(tmp_path / "b")


class TestSessionAutoDump:
    def run_queries(self, session, *texts):
        out = io.StringIO()
        for text in texts:
            session.duel(text, out=out)
        return out.getvalue()

    def test_truncation_dumps_with_explain_tree(self, tmp_path):
        session = array_session()
        session.recorder = FlightRecorder(dump_dir=str(tmp_path))
        session.governor.set_limit("lines", 2)
        self.run_queries(session, "x[..10]")
        dumps = sorted(os.listdir(tmp_path))
        assert len(dumps) == 1
        artifact = json.loads((tmp_path / dumps[0]).read_text())
        assert "truncated" in artifact["reason"]
        assert "x[..10]" in artifact["reason"]
        (query,) = artifact["queries"]
        assert query["outcome"] == "truncated"
        assert query["kind"] == "lines"
        # The recorder implies tracing: the entry carries the full
        # per-node profile tree (preorder, depth included).
        ops = [span["op"] for span in query["explain"]]
        assert "index" in ops and "to" in ops
        assert query["explain"][0]["depth"] == 0
        assert query["events"]         # and a tail of pull/yield events
        assert artifact["limits"]["lines"] == 2

    def test_memory_fault_dumps(self, tmp_path):
        session = array_session()
        session.recorder = FlightRecorder(dump_dir=str(tmp_path))
        self.run_queries(session, "x[0]", "x[2000000]")
        dumps = os.listdir(tmp_path)
        assert len(dumps) == 1
        artifact = json.loads((tmp_path / dumps[0]).read_text())
        assert "faulted" in artifact["reason"]
        assert artifact["queries"][-1]["error_type"] == "DuelMemoryError"
        # The clean query rides along in the window for context.
        assert [q["outcome"] for q in artifact["queries"]] == \
            ["drained", "faulted"]

    def test_plain_user_errors_do_not_dump(self, tmp_path):
        session = array_session()
        session.recorder = FlightRecorder(dump_dir=str(tmp_path))
        self.run_queries(session, "nosuchname", "x[", "x[0]")
        assert os.listdir(tmp_path) == []
        assert [e["outcome"] for e in session.recorder.entries] == \
            ["faulted", "drained"]      # rejected parses never record

    def test_no_dump_dir_records_but_never_dumps(self, tmp_path):
        session = array_session()
        session.recorder = FlightRecorder()
        session.governor.set_limit("lines", 2)
        self.run_queries(session, "x[..10]")
        assert len(session.recorder.entries) == 1
        assert session.recorder.dumps == 0

    def test_recorder_traces_only_sampled_queries(self):
        """The recorder follows the one sampling verdict: with
        ``--trace-sample 10`` it still records every query, but only
        every tenth runs engine-traced and carries an explain tree."""
        from repro.obs.trace import Sampler
        session = array_session()
        session.recorder = FlightRecorder(capacity=32)
        session.sampler = Sampler(10)
        traced = []
        for index in range(20):
            session.duel(f"x[{index % 10}]", out=io.StringIO())
            traced.append(session.last_query.tracer is not None)
        assert traced == ([False] * 9 + [True]) * 2
        entries = session.recorder.last()
        assert len(entries) == 20
        assert [i for i, e in enumerate(entries) if "explain" in e] == \
            [9, 19]

    def test_recorder_off_costs_nothing_visible(self):
        session = array_session()
        assert session.recorder is None
        self.run_queries(session, "x[0]")
        assert session.last_query.tracer is None      # no implied tracer


class TestPinnedRecords:
    def test_pin_survives_window_rollover(self):
        recorder = FlightRecorder(capacity=4, clock=lambda: 1000.0)
        recorder.pin("slow_query", {"trace": {"trace_id": "t1"}})
        for index in range(20):
            recorder.record({"text": f"q{index}", "outcome": "drained"})
        assert len(recorder.entries) == 4
        assert len(recorder.pinned) == 1
        pinned = recorder.pinned[0]
        assert pinned["pin_reason"] == "slow_query"
        assert pinned["pinned_at"] == 1000.0
        assert pinned["trace"]["trace_id"] == "t1"

    def test_pin_capacity_is_bounded(self):
        recorder = FlightRecorder(pin_capacity=3)
        for index in range(10):
            recorder.pin("slow_query", {"n": index})
        assert [p["n"] for p in recorder.pinned] == [7, 8, 9]

    def test_dump_includes_pinned(self, tmp_path):
        recorder = FlightRecorder(dump_dir=str(tmp_path))
        recorder.record({"text": "q", "outcome": "drained"})
        recorder.pin("slow_query", {"trace": {"trace_id": "t9"}})
        path = recorder.dump("test")
        artifact = json.loads(open(path).read())
        assert len(artifact["pinned"]) == 1
        assert artifact["pinned"][0]["trace"]["trace_id"] == "t9"
        assert artifact["queries"][0]["text"] == "q"

    def test_empty_pins_dump_as_empty_list(self, tmp_path):
        recorder = FlightRecorder(dump_dir=str(tmp_path))
        artifact = json.loads(open(recorder.dump("test")).read())
        assert artifact["pinned"] == []
