"""Integration: the DUEL query service under real concurrent load.

The acceptance scenario for the serve subsystem: one loopback
:class:`DuelServer` over a shared target, at least eight concurrent
clients mixing read-only queries, side-effecting writes and runaway
generators, proving

* per-client isolation — writes and aliases never leak across
  clients, and every reader sees the pristine target;
* graceful truncation and client-initiated cancel deliver partial
  results plus the paper-style diagnostic over the wire;
* admission control answers overload with an explicit ``rejected:
  overloaded`` frame — never a hang;
* shutdown drains: admitted queries finish, clients get ``bye``.
"""

import threading
import time

import pytest

from repro.bench import workloads
from repro.obs.metrics import MetricsRegistry
from repro.serve.client import DuelClient
from repro.serve.server import DuelServer

CLIENTS = 8
ARRAY = 200


@pytest.fixture
def metrics():
    return MetricsRegistry()


@pytest.fixture
def server(metrics):
    booted = DuelServer(workloads.big_array(ARRAY), workers=4,
                        queue_depth=32, max_clients=CLIENTS + 4,
                        per_client=1, metrics=metrics, drain_timeout=10.0)
    booted.start()
    yield booted
    booted.stop()


def spawn(worker, count):
    """Run ``worker(index)`` on ``count`` threads; returns results."""
    barrier = threading.Barrier(count)
    results = [None] * count
    failures = []

    def run(index):
        barrier.wait()
        try:
            results[index] = worker(index)
        except Exception as error:  # pragma: no cover - failure path
            failures.append((index, error))

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not failures, failures
    assert all(not t.is_alive() for t in threads), "worker hung"
    return results


class TestConcurrentMixedLoad:
    def test_eight_clients_mixed_read_write_runaway(self, server):
        """The headline scenario: isolation under genuine concurrency."""
        baseline_client = DuelClient(port=server.port, timeout=30.0)
        baseline = baseline_client.duel("x[..20]").lines
        baseline_client.close()
        assert len(baseline) == 20

        def worker(index):
            with DuelClient(port=server.port, client=f"mix{index}",
                            timeout=60.0) as client:
                outcomes = []
                for round_ in range(4):
                    role = (index + round_) % 4
                    if role == 0:        # plain read
                        result = client.duel("x[..20]")
                        assert result.ok
                        assert result.lines == baseline
                    elif role == 1:      # side-effecting write
                        result = client.duel(f"x[..20] = {1000 + index}")
                        assert result.ok
                        # The write saw itself...
                        assert all(str(1000 + index) in line
                                   for line in result.lines)
                        # ...and vanished immediately after.
                        again = client.duel("x[..20]")
                        assert again.lines == baseline
                    elif role == 2:      # private alias
                        assert client.duel(
                            f"mine{index} := {index} * 100").ok
                        result = client.duel(f"mine{index}")
                        assert result.lines == [f"{index * 100}"] \
                            or any(str(index * 100) in line
                                   for line in result.lines)
                    else:                # runaway, truncated by limits
                        result = client.duel(f"x[(1..) % {ARRAY}]")
                        assert result.outcome == "truncated"
                        assert result.kind == "lines"
                        assert len(result.lines) == 10000
                        assert "stopped" in result.diagnostic
                    outcomes.append(role)
                return outcomes

        results = spawn(worker, CLIENTS)
        assert all(len(r) == 4 for r in results)
        # The shared target survived it all unchanged.
        with DuelClient(port=server.port, timeout=30.0) as check:
            assert check.duel("x[..20]").lines == baseline

    def test_aliases_stay_private_across_clients(self, server):
        def worker(index):
            with DuelClient(port=server.port, client=f"al{index}",
                            timeout=60.0) as client:
                assert client.duel(f"token := {index + 7000}").ok
                # Everyone defined 'token'; each sees only their own.
                result = client.duel("token")
                assert result.ok
                assert any(str(index + 7000) in line
                           for line in result.lines)
                aliases = client.aliases()
                assert aliases.get("token") == str(index + 7000)
                return True

        assert all(spawn(worker, CLIENTS))


class TestCancelOverTheWire:
    def test_concurrent_cancels_keep_partials(self, server):
        def worker(index):
            with DuelClient(port=server.port, client=f"cx{index}",
                            timeout=60.0) as client:
                client.limits("lines", 1_000_000)
                request = client.start(f"x[(1..) % {ARRAY}]")
                seen = threading.Event()
                lines = []

                def on_line(line):
                    lines.append(line)
                    if len(lines) >= 32:
                        seen.set()

                box = {}

                def collect():
                    box["result"] = client.collect(request,
                                                   on_line=on_line)

                thread = threading.Thread(target=collect)
                thread.start()
                assert seen.wait(timeout=60)
                client.cancel(request)
                thread.join(timeout=60)
                assert not thread.is_alive()
                result = box["result"]
                assert result.outcome == "cancelled"
                assert result.kind == "cancel"
                assert len(result.lines) >= 32
                assert "interrupted" in result.diagnostic
                return len(result.lines)

        partials = spawn(worker, CLIENTS)
        assert all(n >= 32 for n in partials)


class TestOverloadUnderConcurrency:
    def test_overload_is_an_explicit_rejection(self, metrics):
        server = DuelServer(workloads.big_array(ARRAY), workers=1,
                            queue_depth=2, max_clients=CLIENTS + 4,
                            per_client=1, metrics=metrics,
                            drain_timeout=10.0)
        server.start()
        try:
            # Pin the only worker on a runaway bounded by a short
            # deadline (so the queued clients complete afterwards),
            # drained concurrently so the worker never blocks on an
            # unread socket.
            pin = DuelClient(port=server.port, timeout=60.0)
            pin.limits("lines", 1_000_000)
            pin.limits("deadline_ms", 5000)
            pinned = pin.start(f"x[(1..) % {ARRAY}]")
            box = {}
            drainer = threading.Thread(
                target=lambda: box.update(result=pin.collect(pinned)))
            drainer.start()
            deadline = time.monotonic() + 10
            while not (server.inflight() == 1 and server.queued() == 0) \
                    and time.monotonic() < deadline:
                time.sleep(0.01)

            def worker(index):
                with DuelClient(port=server.port, client=f"ov{index}",
                                timeout=60.0) as client:
                    result = client.duel("x[..3]")
                    return result.outcome, result.reason

            results = spawn(worker, CLIENTS)
            outcomes = {outcome for outcome, _ in results}
            # Nobody hung: every client got a definite answer, and
            # with a depth-2 queue most were explicitly turned away.
            assert outcomes <= {"done", "rejected"}
            rejected = [r for r in results if r[0] == "rejected"]
            assert rejected, "queue never overflowed"
            assert all(reason == "overloaded" for _, reason in rejected)
            drainer.join(timeout=60)
            assert not drainer.is_alive()
            assert box["result"].outcome == "truncated"
            pin.close()
        finally:
            server.stop()
        assert metrics.counter("serve_rejected_total").value \
            >= len(rejected)


class TestDrainOnShutdown:
    def test_admitted_queries_finish_before_bye(self, metrics):
        server = DuelServer(workloads.big_array(ARRAY), workers=2,
                            queue_depth=16, max_clients=CLIENTS + 4,
                            per_client=1, metrics=metrics,
                            drain_timeout=15.0)
        server.start()
        clients = [DuelClient(port=server.port, client=f"dr{i}",
                              timeout=60.0)
                   for i in range(CLIENTS)]
        value_seen = threading.Event()
        results = {}
        byes = []

        def worker(index):
            client = clients[index]
            results[index] = client.duel(
                "x[..50]", on_line=lambda line: value_seen.set())
            frame = client.read_frame()
            while frame is not None and frame.get("ev") != "bye":
                frame = client.read_frame()
            if frame is not None:
                byes.append(index)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(CLIENTS)]
        try:
            for thread in threads:
                thread.start()
            # Only pull the plug once at least one query is provably
            # admitted (it streamed a value): drain must let it finish.
            assert value_seen.wait(timeout=30), \
                "no query ever streamed a value"
            server.stop()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert len(results) == CLIENTS
            # Every admitted query produced its terminal frame, then
            # the unsolicited shutdown bye.
            finished = 0
            for result in results.values():
                if result.outcome == "done":
                    assert len(result.lines) == 50
                    finished += 1
                else:
                    assert result.outcome in ("cancelled", "rejected")
            assert finished >= 1
            assert len(byes) == CLIENTS
        finally:
            for client in clients:
                client.close()

    def test_queries_after_drain_are_rejected(self, server):
        client = DuelClient(port=server.port, timeout=30.0)
        try:
            server._stopping = True
            result = client.duel("x[..3]")
            assert result.outcome == "rejected"
            assert result.reason == "shutting down"
        finally:
            server._stopping = False
            client.close()


class TestSharedObservability:
    def test_qlog_and_metrics_aggregate_across_clients(self, tmp_path,
                                                       metrics):
        import json

        from repro.obs.qlog import QueryLog
        path = str(tmp_path / "serve.qlog")
        qlog = QueryLog(path)
        server = DuelServer(workloads.big_array(ARRAY), workers=4,
                            queue_depth=32, max_clients=CLIENTS + 4,
                            per_client=1, metrics=metrics, qlog=qlog,
                            drain_timeout=10.0)
        server.start()
        try:
            def worker(index):
                with DuelClient(port=server.port, client=f"ob{index}",
                                timeout=60.0) as client:
                    assert client.duel("x[..10]").ok
                    assert client.duel("x[0] = 1").ok
                    return True

            assert all(spawn(worker, CLIENTS))
        finally:
            server.stop()
            qlog.close()
        with open(path) as handle:
            records = [json.loads(line) for line in handle]
        received = [r["qid"] for r in records if r["ev"] == "received"]
        # Atomic allocation: qids are exactly 1..N, in file order.
        assert received == list(range(1, 2 * CLIENTS + 1))
        drained = [r for r in records if r["ev"] == "drained"]
        assert len(drained) == 2 * CLIENTS
        assert metrics.counter("queries_total").value == 2 * CLIENTS
        assert metrics.counter("serve_outcome_done_total").value \
            == 2 * CLIENTS


class TestTracingAndStatements:
    """PR 8 acceptance: traces and statement statistics over the wire.

    Eight concurrent clients run a mixed workload against one traced,
    aggregating server.  Every query must come back with a trace id;
    the exported span tree for any of those ids must show the server
    phases wrapped around the engine's own AST spans; and the
    ``statements`` op must report per-fingerprint call counts that
    add up exactly — literal variants folded, reads and writes kept
    apart.
    """

    def test_eight_clients_traced_and_aggregated(self, tmp_path,
                                                 metrics):
        import json

        from repro.obs.reqtrace import SERVER_PHASES, TraceLog
        from repro.obs.statements import StatementStats

        path = tmp_path / "traces.jsonl"
        tracelog = TraceLog(str(path))
        stats = StatementStats()
        server = DuelServer(workloads.big_array(ARRAY), workers=4,
                            queue_depth=32, max_clients=CLIENTS + 4,
                            per_client=1, metrics=metrics,
                            statements=stats, tracelog=tracelog,
                            drain_timeout=10.0)
        server.start()
        try:
            def worker(index):
                with DuelClient(port=server.port, client=f"tr{index}",
                                timeout=60.0) as client:
                    ids = []
                    # Two literal variants of one read shape...
                    for text in ("x[..10]", "x[..10]", "x[..5]"):
                        result = client.duel(text)
                        assert result.ok
                        assert result.trace_id
                        assert result.fingerprint
                        ids.append(result.trace_id)
                    # ...and one write shape.
                    result = client.duel("x[0] = 7")
                    assert result.ok
                    ids.append(result.trace_id)
                    return ids

            ids = spawn(worker, CLIENTS)
            all_ids = [tid for per_client in ids for tid in per_client]
            # Server-assigned ids are unique across the whole fleet.
            assert len(set(all_ids)) == 4 * CLIENTS

            with DuelClient(port=server.port, timeout=30.0) as client:
                reply = client.statements(by="calls", limit=10)
                assert reply["enabled"]
                assert reply["recorded"] == 4 * CLIENTS
                rows = {r["text"]: r for r in reply["rows"]}
                assert len(rows) == 2
                by_calls = sorted(rows.values(),
                                  key=lambda r: r["calls"])
                # x[..10] and x[..5] folded into one shape: 3 calls
                # per client; the write stayed its own shape.
                assert by_calls[0]["calls"] == CLIENTS
                assert by_calls[1]["calls"] == 3 * CLIENTS
                assert by_calls[1]["values"] == CLIENTS * (10 + 10 + 5)
                # A profiled query shows the span tree inline too.
                probe = client.duel("x[..3]", profile=True)
                assert probe.ok and probe.profile
                got = {s["name"] for s in probe.profile["spans"]}
                assert got == set(SERVER_PHASES)
                assert probe.profile["engine_spans"]
        finally:
            server.stop()
            tracelog.close()

        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        by_id = {r["trace_id"]: r for r in records
                 if r["ev"] == "request"}
        # No sampler: every fleet query's span tree was exported.
        for trace_id in all_ids:
            record = by_id[trace_id]
            names = [s["name"] for s in record["spans"]]
            for phase in SERVER_PHASES:
                assert phase in names, (trace_id, names)
            assert record["engine_spans"], trace_id
            assert record["outcome"] == "done"
            assert record["fingerprint"]


class TestOneSamplingVerdict:
    """One coin per query decides both the request-trace export and
    the access profile, so the two logs sample the same queries."""

    def test_every_sampled_access_profile_has_its_request_trace(
            self, tmp_path, metrics):
        import json

        from repro.obs.access import AccessLog
        from repro.obs.reqtrace import TraceLog
        from repro.obs.trace import Sampler

        tracelog = TraceLog(tmp_path / "traces.jsonl")
        accesslog = AccessLog(tmp_path / "accesses.jsonl")
        server = DuelServer(workloads.big_array(ARRAY), workers=2,
                            metrics=metrics, tracelog=tracelog,
                            accesslog=accesslog, sampler=Sampler(4),
                            drain_timeout=10.0)
        server.start()
        try:
            with DuelClient(port=server.port, client="coin",
                            timeout=30.0) as client:
                probe = client.accesses("x[..8]")
                assert probe["outcome"] == "done"
                for index in range(16):
                    assert client.duel(f"x[{index}]").ok
        finally:
            server.stop()
            tracelog.close()
            accesslog.close()

        traces = [json.loads(line) for line in
                  (tmp_path / "traces.jsonl").read_text().splitlines()]
        profiles = [json.loads(line) for line in
                    (tmp_path / "accesses.jsonl").read_text().splitlines()]
        # The forced probe (it does not toss the coin), then every
        # fourth read: x[3], x[7], x[11], x[15].
        assert [p["text"] for p in profiles] == \
            ["x[..8]", "x[3]", "x[7]", "x[11]", "x[15]"]
        assert len(traces) == 5
        exported = {trace["trace_id"] for trace in traces}
        for profile in profiles:
            assert profile["trace_id"] in exported, profile["text"]
        assert all(trace["engine_spans"] for trace in traces)
