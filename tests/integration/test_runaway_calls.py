"""Integration: a runaway target call stops the way a runaway query does.

The paper stops runaway DUEL expressions with gdb's ^C, which also
stops an inferior function call.  Here the interpreter polls the
query's checkpoint every few statements while a call runs, so a
deadline or a tripped cancel token (^C in the REPL, a ``cancel`` frame
served) lands *inside* the call: the query ends ``truncated`` or
``cancelled`` as it would between values, and rolls back, since a
half-run call leaves the target in no consistent state.  Runaway
recursion and expressions too deep for the Python stack end as one
query error, in process, in the REPL and served alike.
"""

import io
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.bench import workloads
from repro.cli import main
from repro.core.session import DuelSession
from repro.debugger import Debugger
from repro.minic.runner import run_program
from repro.obs.metrics import MetricsRegistry
from repro.serve.client import DuelClient, RetryPolicy
from repro.serve.server import DuelServer
from repro.target.interface import SimulatorBackend

REPO = Path(__file__).resolve().parents[2]

#: ``g`` reads 1 before the query; a rolled-back call leaves it there.
SPIN = r"""
int g = 1;
int n;
int spin(void) { g = 7; while (1) n = n + 1; return 0; }
int main(void) { return 0; }
"""

#: Unbounded recursion; ``g`` reads -1 before the query.
RECURSE = r"""
int g = -1;
int f(int n) { g = n; return f(n + 1); }
int main(void) { return 0; }
"""

DEPTH_ERROR = "target call failed: call depth exceeded 64 (calling f)"
DEADLINE_NOTE = ("(stopped: 0 values, wall-clock deadline expired; "
                 "raise with 'limits deadline_ms 400')")


def session_for(source, **kwargs):
    return DuelSession(SimulatorBackend(run_program(source).program),
                       **kwargs)


def drive(session, text):
    """Every event of one query; asserts there is exactly one terminal."""
    events = list(session.ievents(text))
    terminals = [kind for kind, _ in events if kind != "value"]
    assert len(terminals) == 1, terminals
    return events[-1]


@pytest.fixture
def spin_c(tmp_path):
    path = tmp_path / "spin.c"
    path.write_text(SPIN)
    return str(path)


@pytest.fixture
def recurse_c(tmp_path):
    path = tmp_path / "recurse.c"
    path.write_text(RECURSE)
    return str(path)


def serve(source, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("watchdog_tick", 0.05)
    server = DuelServer(run_program(source).program, **kwargs)
    server.start()
    return server


def connect(server, name):
    return DuelClient(port=server.port, client=name, timeout=30.0,
                      retry=RetryPolicy(retries=0))


class TestSpinInProcess:
    def test_deadline_stops_the_call_and_rolls_back(self):
        session = session_for(SPIN, deadline_ms=200)
        kind, info = drive(session, "spin()")
        assert kind == "truncated"
        assert info["kind"] == "deadline_ms"
        assert info["diagnostic"] == DEADLINE_NOTE
        assert info["stats"]["wall_ms"] < 400
        assert session.eval_lines("g") == ["g = 1"]
        assert session.backend.program.checkpoint is None

    def test_token_tripped_from_another_thread(self):
        session = session_for(SPIN)
        timer = threading.Timer(0.2, session.governor.token.trip)
        timer.start()
        try:
            kind, info = drive(session, "spin()")
        finally:
            timer.cancel()
        assert kind == "cancelled"
        assert info["kind"] == "cancel"
        assert info["diagnostic"] == "(stopped: 0 values, interrupted)"
        assert info["stats"]["wall_ms"] < 400
        assert session.eval_lines("g") == ["g = 1"]

    def test_stop_between_values_keeps_effects(self):
        """Only a stop inside a call rolls back: the same deadline
        between values keeps what the query already wrote."""
        session = session_for(SPIN, deadline_ms=100, max_steps=0)
        kind, info = drive(session, "g = 5, #/(1..)")
        assert kind == "truncated"
        assert info["kind"] == "deadline_ms"
        assert session.eval_lines("g") == ["g = 5"]

    def test_call_free_queries_take_the_same_steps(self):
        """The interpreter's statements are not governor steps: a query
        that calls nothing charges what it always did."""
        session = DuelSession(SimulatorBackend(workloads.big_array(120)))
        pinned = {"x[..120] >? 0": 427, "+/x[..120]": 243,
                  "#/(x[..120] <? 0)": 418, "x[..10]++": 32,
                  "(1..50) + (3,4)": 352}
        steps = {text: drive(session, text)[1]["stats"]["steps"]
                 for text in pinned}
        assert steps == pinned


class TestSpinInRepl:
    def test_expression_mode_deadline(self, spin_c):
        out = io.StringIO()
        t0 = time.monotonic()
        status = main([spin_c, "--deadline-ms", "200", "-e", "spin()",
                       "-e", "g"], out=out)
        elapsed = time.monotonic() - t0
        assert status == 0
        assert out.getvalue().splitlines()[1:] == [
            "duel spin()", DEADLINE_NOTE, "duel g", "g = 1"]
        assert elapsed < 2.0, elapsed

    @pytest.mark.skipif(not hasattr(signal, "SIGINT"),
                        reason="no SIGINT on this platform")
    def test_sigint_stops_the_call_and_the_next_line_runs(self, spin_c):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
        # The 10 s deadline is only a backstop: a lost signal fails
        # the assertions instead of hanging.
        process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "--deadline-ms",
             "10000", spin_c],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, env=env, cwd=str(REPO))
        try:
            process.stdin.write("g\nspin()\ng\nquit\n")
            process.stdin.flush()
            seen = []
            while "g = 1" not in seen:     # the REPL is reading lines
                line = process.stdout.readline()
                assert line, seen
                seen.append(line.rstrip("\n"))
            time.sleep(0.2)                # spin() is running now
            t0 = time.monotonic()
            process.send_signal(signal.SIGINT)
            out, _ = process.communicate(timeout=30)
            elapsed = time.monotonic() - t0
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, out
        assert "Traceback" not in out
        assert out.splitlines() == ["(stopped: 0 values, interrupted)",
                                    "g = 1"]
        assert elapsed < 5.0, elapsed


class TestSpinServed:
    def test_deadline_ends_truncated_without_the_watchdog(self):
        metrics = MetricsRegistry()
        server = serve(SPIN, metrics=metrics)
        try:
            client = connect(server, "spin")
            client.limits("deadline_ms", 200)
            result = client.duel("spin()")
            assert result.outcome == "truncated", result.outcome
            assert result.kind == "deadline_ms"
            assert result.diagnostic == DEADLINE_NOTE
            assert result.stats["wall_ms"] < 400
            assert client.duel("g").lines == ["g = 1"]
            assert server.hard_cancels == 0
            assert metrics.counter(
                "serve_watchdog_hard_cancels_total").value == 0
            assert not server.sessions.get(
                client.welcome["client"]).poisoned
            client.close()
        finally:
            server.stop()

    def test_watchdog_trip_stops_a_call_with_the_deadline_off(
            self, monkeypatch):
        """With no deadline the watchdog assumes one; at 1.5x that it
        trips the token, which the running call polls."""
        from repro.serve import server as server_module
        monkeypatch.setattr(server_module, "DEFAULT_WATCHDOG_DEADLINE",
                            0.2)
        server = serve(SPIN)
        try:
            client = connect(server, "spin")
            client.limits("deadline_ms", 0)       # off
            result = client.duel("spin()")
            assert result.outcome == "cancelled", result.outcome
            assert result.kind == "cancel"
            assert server.hard_cancels == 1
            assert server.workers_lost == 0
            assert client.duel("g").lines == ["g = 1"]
            client.close()
        finally:
            server.stop()

    def test_cancel_frame_stops_the_call(self):
        server = serve(SPIN)
        try:
            client = connect(server, "spin")
            request = client.start("spin()")
            time.sleep(0.2)
            client.cancel(request)
            result = client.collect(request)
            assert result.outcome == "cancelled", result.outcome
            assert result.kind == "cancel"
            assert result.stats["wall_ms"] < 400
            assert client.duel("g").lines == ["g = 1"]
            assert server.hard_cancels == 0
            client.close()
        finally:
            server.stop()


def nested(levels, call):
    """``call()`` from ``levels`` Python frames further down."""
    if levels == 0:
        return call()
    return nested(levels - 1, call)


class TestRunawayRecursion:
    def test_in_process_fault_is_rolled_back(self):
        session = session_for(RECURSE)
        kind, info = drive(session, "f(0)")
        assert kind == "faulted"
        assert info["error_type"] == "DuelTargetError"
        assert info["error"] == DEPTH_ERROR
        assert session.eval_lines("g") == ["g = -1"]
        assert session.backend.program.stack.depth == 0

    def test_same_fault_however_deep_the_caller(self):
        session = session_for(RECURSE)
        for levels in (0, 150, 300):
            kind, info = nested(levels, lambda: drive(session, "f(0)"))
            assert (kind, info["error"]) == ("faulted", DEPTH_ERROR)

    def test_repl_expression_mode(self, recurse_c):
        out = io.StringIO()
        assert main([recurse_c, "-e", "f(0)", "-e", "g"], out=out) == 0
        assert out.getvalue().splitlines()[1:] == [
            "duel f(0)", DEPTH_ERROR, "duel g", "g = -1"]

    def test_repl_stdin(self, recurse_c):
        out = io.StringIO()
        assert main([recurse_c], stdin=io.StringIO("f(0)\ng\n"),
                    out=out) == 0
        assert out.getvalue().splitlines()[1:] == [DEPTH_ERROR, "g = -1"]

    def test_served(self):
        server = serve(RECURSE)
        try:
            client = connect(server, "recurse")
            result = client.duel("f(0)")
            assert result.outcome == "faulted", result.outcome
            assert result.error == DEPTH_ERROR
            assert client.duel("g").lines == ["g = -1"]
            client.close()
        finally:
            server.stop()


class TestDebuggerConditionCalls:
    def test_condition_call_is_polled_and_the_run_is_not(self):
        """A breakpoint condition that calls a runaway function: the
        condition's deadline stops that call, and the program, which
        runs ungoverned, goes on well past the deadline."""
        dbg = Debugger(r"""
            int g = 1;
            int n;
            int total = 0;
            int spin(void) { g = 7; while (1) n = n + 1; return 0; }
            int step(int k) { total = total + k; return total; }
            int main(void) {
                int i;
                step(1);
                for (i = 0; i < 100000; i++) total = total + 1;
                return total;
            }
        """)
        dbg.session.governor.set_limit("deadline_ms", 50)
        bp = dbg.break_at("step", "spin()")
        t0 = time.monotonic()
        status = dbg.run()
        assert status == 100001
        assert time.monotonic() - t0 > 0.1     # ran past the deadline
        assert bp.hits == 0                    # the condition stopped
        assert dbg.condition_evals == 1
        assert dbg.program.checkpoint is None


def chain(terms, literal="1"):
    return " + ".join([literal] * terms)


class TestDeepChains:
    @pytest.mark.parametrize("terms", [600, 2000])
    def test_one_query_error_then_the_next_line_runs(self, terms):
        session = DuelSession(SimulatorBackend(
            run_program("int main(void) { return 0; }").program))
        for literal in ("1", "2"):        # compiled, then instantiated
            kind, info = drive(session, chain(terms, literal))
            assert kind in ("error", "faulted")
            assert info["error_type"] == "DuelDepthError"
        assert session.eval_lines("1+1") == ["2"]

    def test_a_read_too_deep_is_not_a_memory_error(self, paper):
        class Exhausted(SimulatorBackend):
            def get_target_bytes(self, address, size):
                raise RecursionError("maximum recursion depth exceeded")

        session = DuelSession(Exhausted(paper))
        kind, info = drive(session, "x[0]")
        assert kind == "faulted"
        assert info["error_type"] == "DuelDepthError"

    def test_repl_survives(self):
        out = io.StringIO()
        main([], stdin=io.StringIO(chain(2000) + "\n1+1\n"), out=out)
        assert out.getvalue().splitlines() == [
            "expression nests too deeply to evaluate; split it into "
            "shorter queries", "2"]

    @pytest.mark.parametrize("traced", ["explain ", "trace on\n"])
    def test_traced_repl_survives(self, traced):
        # The tracer's span registration and the profile rendering
        # walk the tree iteratively, so a traced query ends like an
        # untraced one.
        out = io.StringIO()
        main([], stdin=io.StringIO(traced + chain(1500) + "\n1+1\n"),
             out=out)
        assert out.getvalue().splitlines()[-2:] == [
            "expression nests too deeply to evaluate; split it into "
            "shorter queries", "2"]

    def test_served_profiled_ends_like_unprofiled(self):
        server = serve("int x[4]; int main(void) { return 0; }")
        try:
            client = connect(server, "deep")
            plain = client.duel(chain(1500))
            profiled = client.duel(chain(1500), profile=True)
            assert plain.outcome == profiled.outcome == "faulted"
            assert profiled.error == plain.error
            client.close()
        finally:
            server.stop()

    def test_served_does_not_feed_the_breaker(self):
        server = serve("int x[4]; int main(void) { return 0; }",
                       breaker_threshold=1)
        try:
            client = connect(server, "deep")
            result = client.duel(chain(2000))
            assert result.outcome in ("error", "faulted"), result.outcome
            assert "too deeply" in result.error
            assert server.health.state() == "ok"
            assert client.duel("x[0] = 3").outcome == "done"
            client.close()
        finally:
            server.stop()
