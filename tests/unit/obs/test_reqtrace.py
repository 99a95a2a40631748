"""Request traces: ids, span trees, sampling, JSONL export."""

import io
import json

import pytest

from repro.obs.reqtrace import (ALWAYS_EXPORT, SERVER_PHASES,
                                TRACE_ID_MAX, RequestTrace, TraceLog,
                                make_trace_id, valid_trace_id)
from repro.obs.trace import Sampler


class TestTraceIds:
    def test_make_trace_id_shape(self):
        trace_id = make_trace_id()
        assert len(trace_id) == 16
        assert all(ch in "0123456789abcdef" for ch in trace_id)

    def test_make_trace_id_unique(self):
        assert len({make_trace_id() for _ in range(100)}) == 100

    def test_valid_accepts_generated_ids(self):
        assert valid_trace_id(make_trace_id())

    @pytest.mark.parametrize("bad", [
        "", None, 42, "has space", "tab\tseparated", "new\nline",
        "x" * (TRACE_ID_MAX + 1), "café",
    ])
    def test_valid_rejects(self, bad):
        assert not valid_trace_id(bad)

    def test_valid_accepts_max_length(self):
        assert valid_trace_id("x" * TRACE_ID_MAX)


class TestRequestTrace:
    def test_span_tree_round_trip(self):
        trace = RequestTrace("t1", "sess", request_id=7,
                             text="x[..10]")
        trace.span("admission_queue", 1.5)
        trace.span("session_lock", 0.25, mode="read")
        trace.span("drive", 10.0, eval_ms=9.0)
        trace.outcome = "done"
        record = trace.as_dict()
        assert record["ev"] == "request"
        assert record["trace_id"] == "t1"
        assert record["session_id"] == "sess"
        assert record["request_id"] == 7
        assert record["wall_ms"] == pytest.approx(11.75)
        assert [s["name"] for s in record["spans"]] == [
            "admission_queue", "session_lock", "drive"]
        assert record["spans"][1]["mode"] == "read"

    def test_phase_ms_uses_short_vocabulary(self):
        trace = RequestTrace("t1", "sess")
        trace.span("admission_queue", 1.0)
        trace.span("session_lock", 2.0)
        trace.span("stream", 3.0)
        assert trace.phase_ms() == {"queue": 1.0, "lock": 2.0,
                                    "stream": 3.0}

    def test_optional_fields_absent_when_unset(self):
        record = RequestTrace("t1", "sess").as_dict()
        assert "request_id" not in record
        assert "text" not in record
        assert "engine_spans" not in record
        assert "fingerprint" not in record

    def test_server_phase_vocabulary(self):
        assert SERVER_PHASES == ("admission_queue", "session_lock",
                                 "parse", "drive", "stream")


class TestSampling:
    # The head coin is the session's one Sampler; the log exports
    # whatever the query's verdict, its outcome or its slowness say.
    def test_sample_one_takes_everything(self):
        sampler = Sampler(1)
        assert all(sampler.sample() for _ in range(5))

    def test_sample_n_takes_every_nth(self):
        sampler = Sampler(3)
        coins = [sampler.sample() for _ in range(9)]
        assert coins == [False, False, True] * 3

    def test_invalid_sample_rejected(self):
        with pytest.raises(ValueError):
            Sampler(0)

    def test_should_export_sampled(self):
        log = TraceLog(io.StringIO())
        trace = RequestTrace("t", "s")
        trace.outcome = "done"
        log.export(trace, sampled=True)
        assert log.exported == 1

    def test_should_export_unsampled_good_outcome(self):
        stream = io.StringIO()
        log = TraceLog(stream)
        trace = RequestTrace("t", "s")
        trace.outcome = "done"
        log.export(trace, sampled=False)
        assert stream.getvalue() == "" and log.exported == 0

    @pytest.mark.parametrize("outcome", sorted(ALWAYS_EXPORT))
    def test_bad_outcomes_always_export(self, outcome):
        log = TraceLog(io.StringIO())
        trace = RequestTrace("t", "s")
        trace.outcome = outcome
        log.export(trace, sampled=False)
        assert log.exported == 1

    def test_slow_always_exports(self):
        log = TraceLog(io.StringIO())
        trace = RequestTrace("t", "s")
        trace.outcome = "done"
        log.export(trace, sampled=False, slow=True)
        assert log.exported == 1


class TestExport:
    def test_export_writes_jsonl(self):
        stream = io.StringIO()
        log = TraceLog(stream)
        trace = RequestTrace("t1", "sess")
        trace.span("drive", 5.0)
        trace.outcome = "done"
        log.export(trace)
        log.close()
        record = json.loads(stream.getvalue())
        assert record["trace_id"] == "t1"
        assert log.exported == 1

    def test_path_owned_stream(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        log = TraceLog(str(path))
        trace = RequestTrace("t1", "sess")
        trace.outcome = "done"
        log.export(trace)
        log.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["outcome"] == "done"

    def test_concurrent_export_keeps_lines_whole(self):
        import threading
        stream = io.StringIO()
        log = TraceLog(stream)

        def export_some(tag):
            for index in range(50):
                trace = RequestTrace(f"{tag}-{index}", "sess")
                trace.span("drive", 1.0)
                trace.outcome = "done"
                log.export(trace)

        threads = [threading.Thread(target=export_some, args=(t,))
                   for t in ("a", "b", "c")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        lines = stream.getvalue().splitlines()
        assert len(lines) == 150
        assert log.exported == 150
        for line in lines:
            json.loads(line)       # every line parses on its own
