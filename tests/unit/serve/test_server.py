"""Unit tests for the server: admission, control ops, lifecycle.

Each test boots a real :class:`DuelServer` on a loopback ephemeral
port — the in-process pieces are covered by ``test_sessions.py``;
here the contract under test is the wire behaviour.
"""

import socket
import threading
import time

import pytest

from repro.bench import workloads
from repro.minic import run_program
from repro.obs.metrics import MetricsRegistry
from repro.serve import protocol
from repro.serve.client import DuelClient, ServeError
from repro.serve.server import DuelServer


@pytest.fixture
def server():
    booted = DuelServer(workloads.big_array(100), workers=2,
                        queue_depth=4, max_clients=4, per_client=1,
                        metrics=MetricsRegistry(), drain_timeout=5.0)
    booted.start()
    yield booted
    booted.stop()


def connect(server, name=None) -> DuelClient:
    return DuelClient(port=server.port, client=name, timeout=10.0)


class TestHandshake:
    def test_welcome_carries_identity_and_limits(self, server):
        with connect(server, name="ana") as client:
            assert client.welcome["version"] == protocol.PROTOCOL_VERSION
            assert client.welcome["client"].startswith("ana#")
            assert isinstance(client.welcome["limits"], dict)
            assert client.welcome["per_client"] == 1

    def test_anonymous_clients_get_generated_names(self, server):
        with connect(server) as client:
            assert "#" in client.welcome["client"]

    def test_wrong_version_is_refused(self, server):
        sock = socket.create_connection(("127.0.0.1", server.port),
                                        timeout=5)
        with sock, sock.makefile("rwb") as stream:
            stream.write(protocol.encode({"op": "hello", "version": 99}))
            stream.flush()
            reply = protocol.decode(stream.readline())
            assert reply["ev"] == "error"
            assert "version" in reply["error"]

    def test_first_frame_must_be_hello(self, server):
        sock = socket.create_connection(("127.0.0.1", server.port),
                                        timeout=5)
        with sock, sock.makefile("rwb") as stream:
            stream.write(protocol.encode({"op": "stats", "id": 1}))
            stream.flush()
            reply = protocol.decode(stream.readline())
            assert reply["ev"] == "error"

    def test_second_hello_is_an_error_not_a_hangup(self, server):
        with connect(server) as client:
            client._send(protocol.hello())
            reply = client.read_frame()
            assert reply["ev"] == "error"
            # The conversation survives.
            assert client.duel("1+2").ok

    def test_max_clients_is_enforced(self, server):
        clients = [connect(server) for _ in range(4)]
        try:
            with pytest.raises(ServeError, match="server full"):
                connect(server)
        finally:
            for client in clients:
                client.close()
        # Slots free up after disconnect.
        deadline = time.monotonic() + 5
        while server.connections() and time.monotonic() < deadline:
            time.sleep(0.01)
        with connect(server) as late:
            assert late.duel("1").ok


class TestQueries:
    def test_done_query_streams_values(self, server):
        with connect(server) as client:
            result = client.duel("x[..5]")
            assert result.ok
            assert result.values == 5
            assert len(result.lines) == 5
            assert result.stats is not None

    def test_parse_error_is_an_error_terminal(self, server):
        with connect(server) as client:
            result = client.duel("x[")
            assert result.outcome == "error"
            assert result.error

    def test_fault_is_a_faulted_terminal(self, server):
        with connect(server) as client:
            result = client.duel("*(int*)0")
            assert result.outcome == "faulted"
            assert "memory" in result.error.lower()

    def test_runaway_target_call_is_a_faulted_terminal(self):
        """Target code that runs past its step cap answers ``faulted``
        (rolled back), not the catch-all ``error``."""
        interp = run_program(
            "int g; int spin(int v) { g = 99; while (v) v = v; return 0; }"
            " int main() { g = 1; return 0; }")
        interp.max_steps = interp._steps + 5000
        served = DuelServer(interp.program, workers=1,
                            metrics=MetricsRegistry(), drain_timeout=5.0)
        served.start()
        try:
            with connect(served) as client:
                result = client.duel("spin(1)")
                assert result.outcome == "faulted"
                assert "exceeded" in result.error
                assert client.duel("g").lines == ["g = 1"]
        finally:
            served.stop()

    def test_truncation_ships_partials_and_diagnostic(self, server):
        with connect(server) as client:
            client.limits("lines", 10)
            result = client.duel("x[..50]")
            assert result.outcome == "truncated"
            assert result.kind == "lines"
            assert len(result.lines) == 10
            assert "stopped" in result.diagnostic

    def test_write_queries_do_not_leak_between_queries(self, server):
        with connect(server) as client:
            before = client.duel("x[0]").lines
            assert client.duel("x[0] = 31337").ok
            assert client.duel("x[0]").lines == before

    def test_alias_listing_over_the_wire(self, server):
        with connect(server) as client:
            assert client.duel("t := 40 + 2").ok
            aliases = client.aliases()
            assert aliases.get("t") == "42"

    def test_stats_frame_has_three_scopes(self, server):
        with connect(server) as client:
            client.duel("x[..3]")
            stats = client.stats()
            assert stats["client"]["queries"] >= 1
            assert stats["server"]["clients"] == 1
            assert "steps" in stats["query"]


class TestCancel:
    def test_cancel_mid_query_keeps_partials(self, server):
        with connect(server) as client:
            # Default limits stop a runaway in well under a second;
            # raise the line budget so the cancel is what ends it.
            client.limits("lines", 1_000_000)
            request_id = client.start("x[(1..) % 100]")
            got_some = threading.Event()
            lines = []

            def on_line(line):
                lines.append(line)
                if len(lines) >= 64:
                    got_some.set()

            collector = {}

            def collect():
                collector["result"] = client.collect(request_id,
                                                     on_line=on_line)

            thread = threading.Thread(target=collect)
            thread.start()
            assert got_some.wait(timeout=15)
            client.cancel(request_id)
            thread.join(timeout=15)
            assert not thread.is_alive()
            result = collector["result"]
            assert result.outcome == "cancelled"
            assert result.kind == "cancel"
            assert len(result.lines) >= 64
            assert "interrupted" in result.diagnostic

    def test_cancel_unknown_request_acks_not_found(self, server):
        with connect(server) as client:
            client._send({"op": "cancel", "id": 50, "target": 12345})
            reply = client.read_frame()
            assert reply["ev"] == "cancel"
            assert reply["found"] is False


class TestAdmission:
    def test_per_client_cap_rejects_busy(self, server):
        with connect(server) as client:
            client.limits("lines", 1_000_000)
            first = client.start("x[(1..) % 100]")
            second = client.start("1+1")
            # The second must be rejected while the first runs.
            rejection = None
            while rejection is None:
                frame = client.read_frame()
                if frame.get("id") == second \
                        and frame.get("ev") == "rejected":
                    rejection = frame
            assert rejection["reason"] == "busy"
            client.cancel(first)
            assert client.collect(first).outcome == "cancelled"

    def test_overload_rejects_not_hangs(self):
        server = DuelServer(workloads.big_array(100), workers=1,
                            queue_depth=1, max_clients=16, per_client=4,
                            drain_timeout=5.0)
        server.start()
        clients = []
        try:
            # Pin the single worker on a long-running query.
            runner = DuelClient(port=server.port, timeout=10.0)
            clients.append(runner)
            runner.limits("lines", 1_000_000)
            running = runner.start("x[(1..) % 100]")
            deadline = time.monotonic() + 5
            while not (server.inflight() == 1 and server.queued() == 0) \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.inflight() == 1 and server.queued() == 0
            # Fill the depth-1 queue...
            filler = DuelClient(port=server.port, timeout=10.0)
            clients.append(filler)
            filler.start("x[..3]")
            deadline = time.monotonic() + 5
            while server.queued() == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.queued() == 1
            # ...and overflow it: explicit rejection, never a hang.
            overflow = DuelClient(port=server.port, timeout=10.0)
            clients.append(overflow)
            result = overflow.duel("x[..3]")
            assert result.outcome == "rejected"
            assert result.reason == "overloaded"
            assert server.rejected >= 1
            # Unpin: the runner cancels, the filler then completes.
            runner.cancel(running)
            assert runner.collect(running).outcome == "cancelled"
            assert filler.collect(1).ok
        finally:
            for client in clients:
                client.close()
            server.stop()

    def test_rejected_during_shutdown(self, server):
        with connect(server) as client:
            server._stopping = True
            try:
                result = client.duel("1")
                assert result.outcome == "rejected"
                assert result.reason == "shutting down"
            finally:
                server._stopping = False


class TestLifecycle:
    def test_disconnect_cancels_inflight_queries(self, server):
        client = connect(server)
        client.limits("lines", 1_000_000)
        client.start("x[(1..) % 100]")
        deadline = time.monotonic() + 5
        while server.inflight() == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        client.close()
        deadline = time.monotonic() + 10
        while server.inflight() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert server.inflight() == 0

    def test_session_state_dies_with_the_connection(self, server):
        with connect(server, name="ghost") as client:
            assert client.duel("g := 7").ok
        with connect(server, name="ghost") as client:
            assert client.aliases() == {}

    def test_stop_sends_bye_and_refuses_new_connections(self):
        server = DuelServer(workloads.big_array(10), workers=1,
                            queue_depth=4, drain_timeout=5.0)
        server.start()
        client = DuelClient(port=server.port, timeout=10.0)
        try:
            assert client.duel("x[0]").ok
            server.stop()
            frame = client.read_frame()
            assert frame == {"ev": "bye", "reason": "server shutdown"}
        finally:
            client.close()

    def test_metrics_counters_track_outcomes(self, server):
        metrics = server.metrics
        with connect(server) as client:
            client.duel("x[..3]")
            client.duel("x[")
        assert metrics.counter("serve_connections_total").value >= 1
        assert metrics.counter("serve_queries_total").value >= 2
        assert metrics.counter("serve_outcome_done_total").value >= 1
        assert metrics.counter("serve_outcome_error_total").value >= 1


class TestConsole:
    def test_expr_batch_runs_and_exits_zero(self, server, capsys):
        from repro.serve import client as console
        status = console.main(["--port", str(server.port),
                               "-e", "x[..3]"])
        captured = capsys.readouterr()
        assert status == 0
        assert "x[0] = " in captured.out

    def test_interrupt_at_prompt_exits_cleanly(self, server, capsys,
                                               monkeypatch):
        from repro.serve import client as console

        class _InterruptedStdin:
            def isatty(self):
                return False

            def __iter__(self):
                raise KeyboardInterrupt

        monkeypatch.setattr("sys.stdin", _InterruptedStdin())
        status = console.main(["--port", str(server.port)])
        assert status == 0


class TestAccessesOp:
    @pytest.fixture
    def stat_server(self):
        from repro.obs.statements import StatementStats
        booted = DuelServer(workloads.big_array(1000), workers=2,
                            metrics=MetricsRegistry(),
                            statements=StatementStats(),
                            drain_timeout=5.0)
        booted.start()
        yield booted
        booted.stop()

    def test_accesses_returns_a_classified_profile(self, stat_server):
        with connect(stat_server) as client:
            reply = client.accesses("x[..1000] !=? 0")
        assert reply["ev"] == "accesses"
        assert reply["outcome"] == "done"
        profile = reply["profile"]
        assert profile["pattern"] == "sequential"
        assert profile["reads"] >= 1000
        assert profile["unique_pages"] > 1
        assert reply["fingerprint"]
        # The advisor sweeps at least two page sizes.
        page_sizes = {entry["page_size"] for entry in reply["advisor"]}
        assert len(page_sizes) >= 2

    def test_accesses_suppresses_value_frames(self, stat_server):
        with connect(stat_server) as client:
            request_id = client._take_id()
            client._send({"op": "accesses", "id": request_id,
                          "text": "x[..50]"})
            frames = []
            while True:
                frame = client.read_frame()
                frames.append(frame)
                if frame.get("ev") != "value":
                    break
        assert [f["ev"] for f in frames] == ["accesses"]
        assert frames[0]["values"] == 50

    def test_accesses_reports_compile_errors(self, stat_server):
        with connect(stat_server) as client:
            reply = client.accesses("x[")
        assert reply["outcome"] == "error"
        assert "profile" not in reply
        assert reply["error"]

    def test_accesses_counted_in_health(self, stat_server):
        with connect(stat_server) as client:
            client.accesses("x[..10]")
            health = client.health()
        assert health["accesses"]["served"] == 1

    def test_accesses_feeds_the_statements_table(self, stat_server):
        with connect(stat_server) as client:
            client.accesses("x[..1000] !=? 0")
            reply = client.statements(by="reads_per_value")
        (row,) = reply["rows"]
        assert row["profiles"] == 1
        assert row["pattern"] == "sequential"
        assert row["reads_per_value"] > 0

    def test_statements_orders_by_reads_over_the_wire(self, stat_server):
        with connect(stat_server) as client:
            client.duel("x[..100]")
            client.accesses("x[..1000] !=? 0")
            reply = client.statements(by="reads")
        reads = [row["reads"] for row in reply["rows"]]
        assert reads == sorted(reads, reverse=True)
        assert len(reads) == 2

    def test_statements_by_physical_reads_is_refused(self, stat_server):
        with connect(stat_server) as client:
            client.duel("x[..10]")
            client._send({"op": "statements", "id": 9,
                          "by": "physical_reads"})
            reply = client.read_frame()
        assert reply["ev"] == "error"
        assert "'by' must be one of" in reply["error"]

    def test_health_has_no_cache_section(self, stat_server):
        with connect(stat_server) as client:
            client.duel("x[..10]")
            health = client.health()
        assert "accesses" in health
        assert "cache" not in health

    def test_malformed_accesses_is_rejected(self, stat_server):
        with connect(stat_server) as client:
            client._send({"op": "accesses", "id": 9})
            reply = client.read_frame()
        assert reply["ev"] == "error"
        assert "text" in reply["error"]


class TestServedQueryRecord:
    """The server builds its span tree, slow log and statements row
    from the finished query's record, never from session state."""

    @pytest.fixture
    def stat_server(self):
        from repro.obs.statements import StatementStats
        booted = DuelServer(workloads.big_array(2000), workers=2,
                            metrics=MetricsRegistry(),
                            statements=StatementStats(), slow_ms=50,
                            drain_timeout=5.0)
        booted.start()
        yield booted
        booted.stop()

    def test_rejected_request_reports_no_previous_work(self, stat_server):
        with connect(stat_server) as client:
            scan = client.duel("x[..2000] >=? 0", profile=True)
            assert scan.ok
            slow_before = stat_server.slow_query_count
            bad = client.duel("x[[[", profile=True)
        assert bad.outcome == "error"
        names = {span["name"] for span in bad.profile["spans"]}
        assert "parse" not in names and "drive" not in names
        assert bad.profile["engine_spans"] == []
        assert stat_server.slow_query_count == slow_before

    def test_statements_row_carries_session_and_serve_phases(
            self, stat_server):
        with connect(stat_server) as client:
            client.duel("x[..10]")
            client.duel("x[..5]")
            reply = client.statements()
        (row,) = reply["rows"]
        assert row["calls"] == 2
        assert set(row["phases"]) == {"queue", "lock", "parse", "eval",
                                      "format", "stream"}
        for phase in row["phases"].values():
            assert phase["count"] == 2
