"""The one JSONL writer under every observability log."""

import io
import json
import pathlib

import pytest

from repro.obs.access import AccessLog
from repro.obs.jsonl import JsonlFile
from repro.obs.qlog import QueryLog
from repro.obs.reqtrace import RequestTrace, TraceLog
from repro.obs.trace import JsonlSink, NodeSpan


def write_one(log):
    """One record through each log's own writing method."""
    if isinstance(log, QueryLog):
        log.server_event("drain_begin")
    elif isinstance(log, TraceLog):
        trace = RequestTrace("t1", "sess")
        trace.outcome = "done"
        log.export(trace)
    elif isinstance(log, AccessLog):
        log.export({"ev": "access"})
    else:
        log.begin_query("x[0]", [NodeSpan(0, "index", "index", 0)])
        log.end_query([])


class TestEveryLogAcceptsAPath:
    @pytest.mark.parametrize("log_class",
                             [QueryLog, TraceLog, AccessLog, JsonlSink])
    def test_pathlib_path_opens_owns_and_closes(self, tmp_path,
                                                log_class):
        path = tmp_path / "out.jsonl"
        assert isinstance(path, pathlib.Path)
        log = log_class(path)
        write_one(log)
        log.close()
        assert log._file._stream.closed
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert records and all("ev" in record for record in records)


class TestJsonlFile:
    def test_borrowed_stream_stays_open(self):
        stream = io.StringIO()
        out = JsonlFile(stream)
        out.write({"a": 1}, {"b": 2})
        out.close()
        assert not stream.closed
        assert stream.getvalue() == '{"a": 1}\n{"b": 2}\n'
        assert out.lines == 2

    def test_unflushed_writes_wait_for_a_flush(self, tmp_path):
        path = tmp_path / "out.jsonl"
        out = JsonlFile(str(path))
        out.write({"a": 1}, flush=False)
        out.flush()
        assert path.read_text() == '{"a": 1}\n'
        out.close()

    def test_fsync_on_flush_points_when_asked(self, tmp_path,
                                              monkeypatch):
        synced = []
        monkeypatch.setattr("os.fsync", lambda fd: synced.append(fd))
        out = JsonlFile(tmp_path / "out.jsonl", fsync=True)
        out.write({"a": 1}, flush=False)
        assert synced == []
        out.write({"b": 2})
        out.close()
        assert len(synced) == 2               # the write + close

    def test_fsync_tolerates_streams_without_a_descriptor(self):
        out = JsonlFile(io.StringIO(), fsync=True)
        out.write({"a": 1})                   # no fileno: no error
        out.close()
