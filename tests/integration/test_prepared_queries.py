"""Prepared queries end to end: a served query and a watchpoint each
compile their text once.

Served, ``SessionManager.classify`` (and, with the circuit breaker
open, ``DuelServer._admit`` on the connection thread) prepares the
text, and the drive reuses the entry; the debugger's watchpoints,
assertions and breakpoint conditions reuse theirs at every check.
"""

import pytest

from repro import DuelSession, SimulatorBackend
from repro.bench import workloads
from repro.debugger import Debugger
from repro.obs.metrics import MetricsRegistry
from repro.serve.client import DuelClient, RetryPolicy
from repro.serve.server import DuelServer


@pytest.fixture
def served():
    """A one-worker server whose sessions log every text they compile."""
    compiled = []
    program = workloads.big_array(100)

    def session_factory():
        session = DuelSession(SimulatorBackend(program))
        original = session.compile

        def compile(text, *stream):
            compiled.append(text)
            return original(text, *stream)

        session.compile = compile
        return session

    server = DuelServer(program, workers=1, queue_depth=4, per_client=1,
                        metrics=MetricsRegistry(), drain_timeout=5.0,
                        breaker_threshold=1, breaker_cooldown=60.0,
                        session_factory=session_factory)
    server.start()
    client = DuelClient(port=server.port, timeout=10.0,
                        retry=RetryPolicy(retries=0))
    try:
        yield server, client, compiled
    finally:
        client.close()
        server.stop()


class TestServed:
    def test_breaker_closed_compiles_once_per_text(self, served):
        server, client, compiled = served
        assert not server.health.breaker.open
        for text in ("x[3]", "x[..4]", "x[3]", "x[1] = 5", "x[1] = 5",
                     "x[..4]"):
            assert client.duel(text).outcome == "done"
        assert compiled == ["x[3]", "x[..4]", "x[1] = 5"]

    def test_breaker_open_compiles_once_per_text(self, served):
        server, client, compiled = served
        server.health.breaker.record_fault()
        assert server.health.breaker.open
        for _ in range(3):
            assert client.duel("x[2]").outcome == "done"
            write = client.duel("x[2] = 1")
            assert (write.outcome, write.reason) == ("rejected", "degraded")
        assert compiled == ["x[2]", "x[2] = 1"]

    def test_unparsable_text_is_rejected_each_time(self, served):
        _, client, compiled = served
        for _ in range(2):
            result = client.duel("x[")
            assert result.outcome == "error"
        assert client.duel("x[0]").outcome == "done"
        assert compiled.count("x[") == 4     # classify + drive, twice
        assert compiled.count("x[0]") == 1


COUNTING = r"""
int total = 0;
int main(void) {
    int i;
    for (i = 0; i < 120; i++)
        total = total + i;
    return total;
}
"""


class TestDebugger:
    def test_watch_assert_and_condition_compile_once(self):
        dbg = Debugger(COUNTING)
        compiled = []
        original = dbg.session.compile

        def compile(text, *stream):
            compiled.append(text)
            return original(text, *stream)

        dbg.session.compile = compile
        watch = dbg.watch("total")
        dbg.assert_always("total >= 0")
        dbg.break_at("main", condition="total == 0")
        assert dbg.run() == sum(range(120))
        assert dbg.condition_evals > 200
        assert watch.hits >= 100
        assert sorted(compiled) == ["total", "total == 0", "total >= 0"]
