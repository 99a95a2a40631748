"""The duel-top ops console: frame rendering and the live --once path."""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from repro.bench import workloads
from repro.obs.metrics import MetricsRegistry
from repro.obs.statements import StatementStats
from repro.serve import ops
from repro.serve.server import DuelServer


def sample_health(**overrides):
    health = {
        "status": "ok",
        "breaker": {"state": "closed", "threshold": 5,
                    "window_s": 30.0, "cooldown_s": 10.0,
                    "trips": 0, "rejections": 0},
        "sessions": {"active": 3, "parked": 1, "clients": 3,
                     "inflight": 2, "queued": 0},
        "watchdog": {"last_sweep_age_s": 0.4, "reaped": 0,
                     "hard_cancels": 0, "workers_lost": 0},
        "served": 120, "rejected": 2,
        "slow_queries": [],
    }
    health.update(overrides)
    return health


def sample_statements():
    stats = StatementStats()
    stats.record("abcd", "x[..?] >? ?", outcome="done", values=4,
                 wall_ms=12.0)
    reply = {"ev": "statements", "enabled": True,
             "rows": stats.snapshot()}
    reply.update(stats.state())
    return reply


class TestRender:
    def test_header_and_subsystems(self):
        frame = ops.render(sample_health(), sample_statements(),
                           "127.0.0.1:9999")
        assert "duel-top — 127.0.0.1:9999 — ok" in frame
        assert "served 120" in frame
        assert "3 active, 1 parked" in frame
        assert "breaker:  closed" in frame
        assert "watchdog: swept 0.4s ago" in frame
        assert "x[..?] >? ?" in frame
        assert "slow queries: none" in frame

    def test_journal_and_traces_render_when_present(self):
        health = sample_health(journal={"lsn": 42, "segments": 2,
                                        "checkpoints": 3},
                               traces_exported=17)
        frame = ops.render(health, sample_statements(), "h:1")
        assert "journal:  lsn 42, 2 segment(s), 3 checkpoint(s)" in frame
        assert "traces:   17 exported" in frame

    def test_stateless_server_omits_journal_line(self):
        frame = ops.render(sample_health(), sample_statements(), "h:1")
        assert "journal:" not in frame

    def test_slow_query_tail(self):
        slow = [{"trace_id": "t1", "wall_ms": 812.5, "outcome": "done",
                 "text": "x[..100000] >? 5"}]
        frame = ops.render(sample_health(slow_queries=slow),
                           sample_statements(), "h:1")
        assert "812.5ms" in frame
        assert "trace=t1" in frame
        assert "x[..100000] >? 5" in frame

    def test_disabled_statements(self):
        frame = ops.render(sample_health(),
                           {"enabled": False, "rows": []}, "h:1")
        assert "statement statistics disabled" in frame

    def test_never_swept_watchdog(self):
        health = sample_health(
            watchdog={"last_sweep_age_s": None, "reaped": 0,
                      "hard_cancels": 0, "workers_lost": 0})
        frame = ops.render(health, sample_statements(), "h:1")
        assert "swept never" in frame

    def test_render_tolerates_sparse_payloads(self):
        # A degraded or ancient server may omit whole sections; the
        # console must render something rather than crash.
        frame = ops.render({}, {}, "h:1")
        assert "duel-top" in frame


@pytest.fixture
def server():
    booted = DuelServer(workloads.big_array(100), workers=2,
                        queue_depth=4, max_clients=4, per_client=1,
                        metrics=MetricsRegistry(),
                        statements=StatementStats(), drain_timeout=5.0)
    booted.start()
    yield booted
    booted.stop()


class TestOnce:
    def test_once_against_live_server(self, server):
        from repro.serve.client import DuelClient
        with DuelClient(port=server.port, timeout=10.0) as client:
            client.duel("x[..5]")
            client.duel("x[..7]")
        out = io.StringIO()
        with redirect_stdout(out):
            status = ops.main(["--port", str(server.port), "--once"])
        assert status == 0
        frame = out.getvalue()
        assert "duel-top" in frame
        assert "— ok" in frame
        assert "top shapes by total_ms" in frame
        # The two reads folded into one canonical shape.
        assert frame.count("(name x)") == 1

    def test_once_orders_by_calls(self, server):
        out = io.StringIO()
        with redirect_stdout(out):
            status = ops.main(["--port", str(server.port), "--once",
                               "--by", "calls"])
        assert status == 0
        assert "top shapes by calls" in out.getvalue()

    def test_unreachable_server_exits_one(self):
        err = io.StringIO()
        with redirect_stderr(err):
            status = ops.main(["--port", "1", "--once"])
        assert status == 1
        assert "cannot reach" in err.getvalue()


def profiled_statements():
    reply = sample_statements()
    reply["rows"] = [dict(row, profiles=3, pattern="sequential",
                          page_locality=15.9, reread_ratio=0.42,
                          pages_per_call=63.0, reads=1234,
                          reads_per_value=617.0)
                     for row in reply["rows"]]
    return reply


class TestLocalityPanel:
    def test_no_profiles_yet(self):
        lines = ops.locality_panel(sample_health(), sample_statements())
        assert lines[0].startswith("locality: 0 accesses op(s)")
        assert "no profiled shapes yet" in lines[1]

    def test_profiled_rows_render(self):
        health = sample_health(accesses={"served": 4, "exported": 2,
                                         "sample": 8})
        lines = ops.locality_panel(health, profiled_statements())
        text = "\n".join(lines)
        assert "locality: 4 accesses op(s)" in text
        assert "2 profile(s) exported (1-in-8 sampling)" in text
        assert "sequential" in text
        assert "617.0" in text
        assert "x[..?] >? ?" in text

    def test_rows_sorted_by_reads_and_limited(self):
        reply = sample_statements()
        reply["rows"] = [
            {"text": f"q{i}", "profiles": 1, "pattern": "random",
             "page_locality": 1.0, "reread_ratio": 0.0,
             "pages_per_call": 1.0, "reads": i, "values": 1,
             "reads_per_value": float(i)}
            for i in range(12)]
        lines = ops.locality_panel(sample_health(), reply, limit=3)
        assert "q11" in lines[2]
        assert len(lines) == 2 + 3

    def test_panel_appears_in_rendered_frame(self):
        frame = ops.render(sample_health(), profiled_statements(), "h:1")
        assert "locality:" in frame
        assert "sequential" in frame


class TestJsonDoc:
    def test_document_shape(self):
        doc = ops.json_doc(sample_health(accesses={"served": 1}),
                           profiled_statements(), "h:1", by="reads")
        assert doc["target"] == "h:1"
        assert doc["status"] == "ok"
        assert doc["by"] == "reads"
        assert doc["health"]["served"] == 120
        assert doc["locality"]["accesses"] == {"served": 1}
        assert doc["locality"]["shapes"][0]["pattern"] == "sequential"
        assert set(doc) == {"target", "status", "by", "health",
                            "statements", "locality"}

    def test_unprofiled_shapes_excluded_from_locality(self):
        doc = ops.json_doc(sample_health(), sample_statements(), "h:1")
        assert doc["locality"]["shapes"] == []
        assert doc["statements"]["rows"]

    def test_wire_envelope_keys_stripped(self):
        doc = ops.json_doc({"ev": "health", "id": 4, "status": "ok"},
                           {"ev": "statements", "id": 5, "rows": []},
                           "h:1")
        assert "ev" not in doc["health"]
        assert "id" not in doc["statements"]


class TestJsonOnce:
    def test_json_once_against_live_server(self, server):
        import json as jsonlib

        from repro.serve.client import DuelClient
        with DuelClient(port=server.port, timeout=10.0) as client:
            client.accesses("x[..100] !=? 0")
        out = io.StringIO()
        with redirect_stdout(out):
            status = ops.main(["--port", str(server.port), "--once",
                               "--json", "--by", "reads"])
        assert status == 0
        doc = jsonlib.loads(out.getvalue())
        assert doc["status"] == "ok"
        assert doc["locality"]["accesses"]["served"] == 1
        (shape,) = doc["locality"]["shapes"]
        assert shape["pattern"] == "sequential"

    def test_json_requires_once(self, capsys):
        with pytest.raises(SystemExit):
            ops.main(["--port", "1", "--json"])
        assert "--json requires --once" in capsys.readouterr().err
