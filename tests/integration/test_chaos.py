"""Integration: the DUEL service survives injected chaos.

The fault-tolerance acceptance suite.  A :class:`ChaosProxy` with a
seeded fault plan sits between real clients and a real server while
drops, resets, truncations, stalls and target faults are injected,
proving

* **no hangs** — every client either completes its queries or gets an
  explicit error, within the suite timeout;
* **exactly-once writes** — a retried idempotency token is replayed
  from the server cache, never executed twice;
* **no leaks** — every session is reaped (active and parked both
  empty) once the dust settles, including a client vanishing between
  ``hello`` and ``welcome``;
* **the watchdog works** — a worker wedged in a backend call that
  reaches no checkpoint is declared lost within 2x its deadline: its
  session is reclaimed and poisoned, and a replacement keeps the pool
  at full size;
* **degraded mode** — a faulting target trips the breaker: reads keep
  flowing, writes get ``rejected: degraded``, and a clean probe after
  the cooldown closes the breaker again.
"""

import json
import threading
import time

import pytest

from repro.bench import workloads
from repro.core.session import DuelSession
from repro.obs.metrics import MetricsRegistry
from repro.obs.qlog import QueryLog
from repro.serve.chaos import ChaosProxy, FaultPlan
from repro.serve.client import DuelClient, RetryPolicy, ServeError
from repro.serve.server import DuelServer
from repro.target.interface import SimulatorBackend
from repro.target.memory import TargetMemoryFault

ARRAY = 120
CLIENTS = 8


def wait_until(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def fast_retry(retries=4):
    """Deterministic, CI-friendly backoff: real sleeps, no jitter."""
    return RetryPolicy(retries=retries, base=0.2, factor=1.5,
                       max_backoff=0.5, jitter=0.0)


def make_server(metrics=None, qlog=None, **kwargs):
    kwargs.setdefault("workers", 4)
    kwargs.setdefault("queue_depth", 32)
    kwargs.setdefault("max_clients", CLIENTS + 8)
    kwargs.setdefault("per_client", 1)
    kwargs.setdefault("drain_timeout", 10.0)
    kwargs.setdefault("heartbeat_interval", 0.5)
    kwargs.setdefault("heartbeat_timeout", 1.5)
    kwargs.setdefault("watchdog_tick", 0.05)
    kwargs.setdefault("resume_ttl", 30.0)
    server = DuelServer(workloads.big_array(ARRAY), metrics=metrics,
                        qlog=qlog, **kwargs)
    server.start()
    return server


class TestChaosSweep:
    """The headline scenario: a seeded storm of mixed faults."""

    def test_seeded_faults_every_client_terminates(self, tmp_path):
        metrics = MetricsRegistry()
        qlog_path = str(tmp_path / "chaos.qlog")
        qlog = QueryLog(qlog_path)

        # A fresh fault-injecting session per client mixes *target*
        # faults into the network chaos (low rate, deterministic).
        from repro.target.interface import FaultInjectingBackend
        program = workloads.big_array(ARRAY)
        made = []

        def factory():
            backend = FaultInjectingBackend(
                SimulatorBackend(program),
                read_fault_rate=0.02, seed=len(made))
            made.append(backend)
            return DuelSession(backend)

        server = DuelServer(program, workers=4, queue_depth=32,
                            max_clients=CLIENTS + 8, per_client=1,
                            metrics=metrics, qlog=qlog,
                            drain_timeout=10.0,
                            heartbeat_interval=0.5,
                            heartbeat_timeout=1.5,
                            watchdog_tick=0.05, resume_ttl=30.0,
                            breaker_threshold=50,
                            session_factory=factory)
        server.start()
        plan = FaultPlan.seeded(1234, CLIENTS * 4, rate=0.6,
                                min_at=64, max_at=2048, seconds=0.3)
        proxy = ChaosProxy(("127.0.0.1", server.port), plan)
        proxy.start()

        outcomes = [None] * CLIENTS
        errors = [None] * CLIENTS

        def worker(index):
            client = DuelClient(port=proxy.port, client=f"chaos{index}",
                                timeout=10.0, connect=False,
                                retry=fast_retry())
            seen = []
            try:
                # Even the dial can hit a faulted connection: retry it.
                attempt = 0
                while True:
                    try:
                        client.connect()
                        break
                    except (OSError, ServeError):
                        attempt += 1
                        if attempt > client.retry.retries:
                            raise
                        client._teardown()
                        client.retry.wait(attempt)
                for text in ("x[..20]",
                             f"x[{index}] = {1000 + index}",
                             "x[..10]"):
                    seen.append(client.duel(text).outcome)
            except (ServeError, OSError) as error:
                errors[index] = str(error)   # explicit, not a hang
            finally:
                outcomes[index] = seen
                try:
                    client.close()
                except Exception:
                    pass

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(CLIENTS)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=90)
            hung = [i for i, t in enumerate(threads) if t.is_alive()]
            assert not hung, f"clients hung under chaos: {hung}"

            # Every client terminated: a full outcome list, or an
            # explicit error after exhausted retries.  Every outcome
            # is a definite terminal, never a hang.
            for index in range(CLIENTS):
                if errors[index] is None:
                    assert len(outcomes[index]) == 3, \
                        f"client {index} stopped early: {outcomes[index]}"
                for outcome in outcomes[index]:
                    assert outcome in ("done", "truncated", "cancelled",
                                       "faulted", "error", "rejected")
        finally:
            proxy.stop()
            server.stop()
            qlog.close()

        # Post-run invariants on the audit trail: qids monotone...
        with open(qlog_path) as handle:
            records = [json.loads(line) for line in handle]
        qids = [r["qid"] for r in records
                if r.get("ev") == "received"]
        assert qids == sorted(qids)
        # ...and exactly-once for the idem-tagged writes: each
        # client's unique write text was *executed* at most once even
        # when the conversation broke and the client retried (replays
        # answer from the cache, creating no new drive).
        for index in range(CLIENTS):
            text = f"x[{index}] = {1000 + index}"
            drives = [r for r in records
                      if r.get("ev") == "received"
                      and r.get("text") == text]
            assert len(drives) <= 1, \
                f"write {text!r} executed {len(drives)} times"

        # No leaks: every session reaped once clients are gone.
        assert wait_until(lambda: server.sessions.count() == 0), \
            f"{server.sessions.count()} sessions leaked"
        server.sessions._parked.clear()   # TTL is 30s; drop the rest


class TestExactlyOnce:
    """Deterministic replay: the terminal frame is lost, the retry
    re-presents the token, the server answers from its cache."""

    def test_lost_terminal_is_replayed_not_reexecuted(self, tmp_path):
        qlog_path = str(tmp_path / "idem.qlog")
        qlog = QueryLog(qlog_path)
        server = make_server(qlog=qlog)
        try:
            client = DuelClient(port=server.port, client="once",
                                timeout=10.0, retry=fast_retry())
            first = client.collect(client.start("x[3] = 77",
                                                idem="tok-1"))
            assert first.outcome == "done"
            # The conversation dies before we "saw" the terminal:
            # drop the transport without a clean bye.
            client._teardown()
            # Let the server notice and park the session, so the
            # reconnect resumes it (cache intact).
            assert wait_until(
                lambda: server.sessions.parked_count() >= 1)
            second = client.duel("x[3] = 77", idem="tok-1")
            assert second.outcome == "done"
            assert second.replayed is True
            assert second.lines == first.lines
            assert client.resumed is True
            client.close()
        finally:
            server.stop()
            qlog.close()
        with open(qlog_path) as handle:
            records = [json.loads(line) for line in handle]
        drives = [r for r in records if r.get("ev") == "received"
                  and r.get("text") == "x[3] = 77"]
        assert len(drives) == 1, "the retried write was re-executed"

    def test_token_still_running_is_busy_then_replayed(self):
        server = make_server()
        try:
            slow = DuelClient(port=server.port, client="slow",
                              timeout=10.0)
            slow.limits("lines", 1_000_000)
            request = slow.start(f"x[(1..) % {ARRAY}]", idem="tok-2")
            # A second connection retrying the same session's token
            # is impossible by construction (tokens are per-session),
            # so retry over the same connection: the protocol rejects
            # a concurrent duel as busy either way; just cancel and
            # confirm the cancelled outcome was cached for the token.
            time.sleep(0.2)
            slow.cancel(request)
            result = slow.collect(request)
            assert result.outcome == "cancelled"
            replay = slow.collect(slow.start("anything",
                                             idem="tok-2"))
            assert replay.outcome == "cancelled"
            assert replay.replayed is True
            slow.close()
        finally:
            server.stop()


class TestHeartbeatReap:
    def test_silent_client_is_reaped_and_session_parked(self):
        import socket as socketlib

        from repro.serve import protocol
        metrics = MetricsRegistry()
        server = make_server(metrics=metrics, resume_ttl=1.0)
        try:
            sock = socketlib.create_connection(
                ("127.0.0.1", server.port), timeout=10)
            sock.settimeout(10)
            rfile = sock.makefile("rb")
            sock.sendall(protocol.encode(protocol.hello("silent")))
            welcome = protocol.decode(rfile.readline())
            assert welcome["ev"] == "welcome"
            # Now say nothing: ignore pings until the server reaps us.
            assert wait_until(lambda: server.reaped >= 1, timeout=15), \
                "silent client never reaped"
            # The server hung up on us (EOF or reset)...
            try:
                tail = sock.recv(65536)
                while tail:
                    tail = sock.recv(65536)
            except OSError:
                pass
            sock.close()
            assert metrics.counter("serve_reaped_total").value >= 1
            assert metrics.counter("serve_pings_total").value >= 1
            # ...the session was parked for resume, and the park
            # expires by TTL: no leak either way.
            assert wait_until(lambda: server.sessions.count() == 0)
            assert wait_until(
                lambda: server.sessions.parked_count() == 0, timeout=15)
        finally:
            server.stop()

    def test_reaped_session_resumes_with_state(self):
        import socket as socketlib

        from repro.serve import protocol
        server = make_server(resume_ttl=30.0)
        try:
            first = DuelClient(port=server.port, client="phoenix",
                               timeout=10.0)
            assert first.duel("mine := 42").ok
            key = first.welcome["resume"]
            # Simulate the network vanishing (no bye): raw teardown.
            first._teardown()
            assert wait_until(
                lambda: server.sessions.parked_count() >= 1)
            # A new connection presenting the key gets the session
            # back, aliases intact.
            sock = socketlib.create_connection(
                ("127.0.0.1", server.port), timeout=10)
            sock.settimeout(10)
            rfile = sock.makefile("rb")
            sock.sendall(protocol.encode(
                protocol.hello("phoenix2", resume=key)))
            welcome = protocol.decode(rfile.readline())
            assert welcome["resumed"] is True
            sock.sendall(protocol.encode(
                {"op": "duel", "id": 1, "text": "mine"}))
            lines = []
            while True:
                frame = protocol.decode(rfile.readline())
                if frame.get("ev") == "ping":
                    sock.sendall(protocol.encode(
                        {"op": "pong", "seq": frame["seq"]}))
                    continue
                if frame.get("ev") == "value":
                    lines.extend(frame["lines"])
                    continue
                break
            assert frame["ev"] == "done"
            assert any("42" in line for line in lines)
            sock.sendall(protocol.encode({"op": "bye"}))
            sock.close()
        finally:
            server.stop()


class WedgedBackend(SimulatorBackend):
    """While armed, the next read blocks until ``release`` is set: a
    backend call that polls no checkpoint, which no cooperative stop
    can reach."""

    def __init__(self, program, switch, release):
        super().__init__(program)
        self._switch = switch
        self._release = release

    def get_target_bytes(self, address, size):
        if self._switch["armed"]:
            self._switch["armed"] = False
            self._release.wait(timeout=30.0)
        return super().get_target_bytes(address, size)


def _wedged_server(switch, release, grace, **kwargs):
    program = workloads.big_array(ARRAY)
    return DuelServer(
        program, workers=2, queue_depth=8, per_client=1,
        drain_timeout=10.0, heartbeat_interval=0.5,
        heartbeat_timeout=60.0, watchdog_tick=0.05,
        watchdog_grace=grace,
        session_factory=lambda: DuelSession(
            WedgedBackend(program, switch, release)),
        **kwargs)


class TestWatchdogHardCancel:
    def test_wedged_query_cancelled_within_twice_deadline(self):
        """The watchdog trips the token at 1.5x the deadline; a read
        that never reaches a checkpoint is answered ``watchdog_grace``
        later, still within 2x the deadline, and its session is
        poisoned."""
        metrics = MetricsRegistry()
        switch = {"armed": False}
        release = threading.Event()
        server = _wedged_server(switch, release, 0.1, metrics=metrics)
        server.start()
        try:
            client = DuelClient(port=server.port, client="wedge",
                                timeout=30.0,
                                retry=RetryPolicy(retries=0))
            deadline_s = 0.8
            client.limits("deadline_ms", int(deadline_s * 1000))
            switch["armed"] = True
            t0 = time.monotonic()
            result = client.duel("x[..5]")
            elapsed = time.monotonic() - t0
            assert result.outcome == "cancelled", result.outcome
            assert result.kind == "watchdog"
            # The acceptance bound: within 2x the query's deadline.
            assert elapsed < 2 * deadline_s, \
                f"hard cancel took {elapsed:.2f}s (deadline {deadline_s}s)"
            assert server.hard_cancels == 1
            assert metrics.counter(
                "serve_watchdog_hard_cancels_total").value == 1
            assert server.workers_lost == 1
            follow_up = client.duel("x[..3]")
            assert follow_up.outcome == "rejected"
            assert follow_up.reason == "poisoned"
            client.close()
        finally:
            release.set()
            server.stop()

    def test_hard_cancelled_query_counted_once_in_statements(self):
        """The watchdog answers for the lost worker and records
        nothing; the worker records the query once when it wakes."""
        from repro.obs.statements import StatementStats
        switch = {"armed": False}
        release = threading.Event()
        statements = StatementStats()
        server = _wedged_server(switch, release, 0.1,
                                metrics=MetricsRegistry(),
                                statements=statements)
        server.start()
        try:
            pool = list(server._worker_threads)
            client = DuelClient(port=server.port, client="wedge",
                                timeout=30.0,
                                retry=RetryPolicy(retries=0))
            client.limits("deadline_ms", 500)
            switch["armed"] = True
            result = client.duel("x[..5]")
            assert result.outcome == "cancelled", result.outcome
            assert server.hard_cancels == 1
            (lost,) = [thread for thread in pool
                       if thread not in server._worker_threads]
            release.set()
            assert wait_until(lambda: not lost.is_alive())
            (row,) = statements.snapshot()
            assert row["calls"] == 1
            client.close()
        finally:
            release.set()
            server.stop()


class TestWatchdogWorkerLost:
    def test_wedged_worker_is_declared_lost(self):
        """A write wedged in a read that reaches no checkpoint: the
        watchdog trips its token at 1.5x the deadline, and
        ``watchdog_grace`` later declares the worker lost.  The client
        gets ``cancelled`` kind ``watchdog``, the session is poisoned,
        its write lock is released for everyone else, the pool keeps
        its size once the wedge ends, and the query counts once."""
        from repro.obs.statements import StatementStats
        switch = {"armed": False}
        release = threading.Event()
        metrics = MetricsRegistry()
        statements = StatementStats()
        server = _wedged_server(switch, release, 0.3, metrics=metrics,
                                statements=statements)
        server.start()
        try:
            pool = list(server._worker_threads)
            wedged = DuelClient(port=server.port, client="wedge",
                                timeout=30.0, retry=RetryPolicy(retries=0))
            other = DuelClient(port=server.port, client="other",
                               timeout=30.0, retry=RetryPolicy(retries=0))
            wedged.limits("deadline_ms", 200)
            switch["armed"] = True
            t0 = time.monotonic()
            result = wedged.duel("x[0] = x[1]")
            elapsed = time.monotonic() - t0
            assert result.outcome == "cancelled", result.outcome
            assert result.kind == "watchdog"
            assert "session poisoned" in result.diagnostic
            # The token trip at 0.3 s, then the 0.3 s grace.
            assert 0.5 < elapsed < 5.0, elapsed
            assert server.hard_cancels == 1
            assert metrics.counter(
                "serve_watchdog_hard_cancels_total").value == 1
            assert server.workers_lost == 1
            follow_up = wedged.duel("x[..3]")
            assert follow_up.outcome == "rejected"
            assert follow_up.reason == "poisoned"
            # Reclaim released the write lock: a write from another
            # client goes through while the lost worker still sleeps.
            write = other.duel("x[2] = 5")
            assert write.outcome == "done", write.outcome
            assert write.lines == ["x[2]=5 = 5"]
            (lost,) = [thread for thread in pool
                       if thread not in server._worker_threads]
            release.set()
            # Once it wakes, the lost worker finishes its query and
            # exits instead of rejoining the pool beside its
            # replacement.
            assert wait_until(lambda: not lost.is_alive())
            assert len(server._worker_threads) == 2
            assert all(thread.is_alive()
                       for thread in server._worker_threads)

            def calls():
                return [row["calls"] for row in statements.snapshot()
                        if row["text"].count("(index") == 2]
            assert wait_until(lambda: calls() == [1]), calls()
            wedged.close()
            other.close()
        finally:
            release.set()
            server.stop()


class FlakyBackend(SimulatorBackend):
    """Target allocations fault while the switch is on.

    Allocation faults surface as :class:`DuelTargetError` — the
    target-distress class the circuit breaker watches (a plain bad
    pointer in a user query is a :class:`DuelMemoryError` and
    deliberately does *not* degrade the service).
    """

    def __init__(self, program, switch):
        super().__init__(program)
        self._switch = switch

    def alloc_target_space(self, size):
        if self._switch["faulty"]:
            raise TargetMemoryFault(0, size, "alloc",
                                    "injected chaos fault")
        return super().alloc_target_space(size)


class TestDegradedMode:
    def test_breaker_trips_writes_rejected_reads_flow_then_recovers(self):
        metrics = MetricsRegistry()
        switch = {"faulty": False}
        program = workloads.big_array(ARRAY)
        server = DuelServer(
            program, workers=2, queue_depth=8, per_client=1,
            metrics=metrics, drain_timeout=10.0,
            heartbeat_interval=10.0, heartbeat_timeout=30.0,
            watchdog_tick=0.05, breaker_threshold=2,
            breaker_window=30.0, breaker_cooldown=0.4,
            session_factory=lambda: DuelSession(
                FlakyBackend(program, switch)))
        server.start()
        try:
            client = DuelClient(port=server.port, client="sick",
                                timeout=10.0,
                                retry=RetryPolicy(retries=0))
            assert client.duel("x[..5]").ok
            assert server.health.state() == "ok"

            # Two target faults trip the breaker (string literals
            # allocate scratch space in the target, which is faulting).
            switch["faulty"] = True
            for text in ('"boom one"', '"boom two"'):
                result = client.duel(text)
                assert result.outcome == "faulted"
                assert "injected chaos fault" in result.error
            assert server.health.breaker.open
            assert server.health.state() == "degraded"
            status, body = server.health.healthz()
            assert status == 200        # alive: do not restart-loop it
            assert body.startswith("degraded")

            # ...writes are refused with an explicit frame...
            write = client.duel("x[0] = 9")
            assert write.outcome == "rejected"
            assert write.reason == "degraded"
            assert metrics.counter(
                "serve_degraded_rejections_total").value >= 1
            assert metrics.counter(
                "serve_breaker_trips_total").value == 1

            # ...reads keep flowing (to a definite terminal, even if
            # the sick target faults them)...
            read = client.duel("x[..5]")
            assert read.outcome in ("done", "faulted")

            # ...the stats frame surfaces the state to operators...
            stats = client.stats()
            assert stats["server"]["health"] == "degraded"

            # ...and once the target heals, the cooldown probe closes
            # the breaker: full service again.
            switch["faulty"] = False
            time.sleep(0.5)             # past the 0.4s cooldown
            probe = client.duel("x[1] = 5")
            assert probe.outcome == "done"
            assert not server.health.breaker.open
            assert server.health.state() == "ok"
            assert metrics.counter(
                "serve_breaker_closes_total").value == 1
            client.close()
        finally:
            server.stop()


class TestSignalsDuringDrain:
    """A second SIGINT while draining fast-drains, never crashes."""

    @pytest.mark.skipif(not hasattr(__import__("signal"), "SIGINT"),
                        reason="no SIGINT on this platform")
    def test_second_sigint_fast_drains_cleanly(self, tmp_path):
        import os
        import signal
        import subprocess
        import sys

        source = tmp_path / "prog.c"
        source.write_text(
            "int data[40] = {1, 2, 3, 4, 5};\n"
            "int main(void) { return 0; }\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")]))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "--serve", "--port", "0",
             "--workers", "2", "--drain-timeout", "30",
             str(source)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, cwd="/root/repo",
            start_new_session=True)
        port = None
        try:
            deadline = time.monotonic() + 30
            while port is None and time.monotonic() < deadline:
                line = process.stdout.readline()
                if not line:
                    break
                if line.startswith("serving on "):
                    port = int(line.rsplit(":", 1)[1])
            assert port is not None, "server never announced its port"

            # Pin a slow query so the drain has something to wait on,
            # then SIGINT twice: the first begins the graceful drain,
            # the second (while draining) escalates to a fast drain.
            client = DuelClient(port=port, client="pin", timeout=30.0,
                                retry=RetryPolicy(retries=0))
            client.limits("lines", 10_000_000)
            request = client.start("data[(1..) % 5]")
            time.sleep(0.3)              # let it stream
            process.send_signal(signal.SIGINT)
            time.sleep(0.3)              # it is draining now
            process.send_signal(signal.SIGINT)

            # The pinned query comes back as a graceful cancellation
            # (or the connection ends) — never a hang.
            try:
                result = client.collect(request)
                assert result.outcome in ("cancelled", "truncated")
            except ServeError:
                pass                     # bye/EOF mid-collect is fine
            client._teardown()

            out, _ = process.communicate(timeout=30)
            assert process.returncode == 0, out
            assert "draining..." in out
            assert "served" in out       # the exit banner printed
            assert "Traceback" not in out
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()


class TestNoSessionLeaks:
    def test_disconnect_between_hello_and_welcome(self):
        import socket as socketlib

        from repro.serve import protocol
        server = make_server(resume_ttl=0.5)
        try:
            # Case 1: hello, then vanish without reading the welcome.
            sock = socketlib.create_connection(
                ("127.0.0.1", server.port), timeout=10)
            sock.sendall(protocol.encode(protocol.hello("ghost1")))
            sock.close()
            # Case 2: hello, then a hard RST before the welcome.
            import struct as structlib
            sock = socketlib.create_connection(
                ("127.0.0.1", server.port), timeout=10)
            sock.sendall(protocol.encode(protocol.hello("ghost2")))
            sock.setsockopt(socketlib.SOL_SOCKET, socketlib.SO_LINGER,
                            structlib.pack("ii", 1, 0))
            sock.close()
            # Neither ghost may leak: active sessions drop right
            # away, any parked entry expires by its short TTL.
            assert wait_until(lambda: server.sessions.count() == 0,
                              timeout=10)
            assert wait_until(
                lambda: server.sessions.parked_count() == 0,
                timeout=10), "ghost session stayed parked"
        finally:
            server.stop()
