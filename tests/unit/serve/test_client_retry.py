"""Unit tests for client-side fault tolerance (no server needed)."""

import errno
import random
import socket

import pytest

from repro.serve import protocol
from repro.serve.client import (DuelClient, QueryResult, RetryPolicy,
                                ServeError, _connection_refused,
                                classify_writes)
from repro.serve.client import main as client_main


class TestRetryPolicy:
    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)

    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(base=0.1, factor=2.0, max_backoff=0.5,
                             jitter=0.0)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.4)
        assert policy.backoff(4) == pytest.approx(0.5)   # capped
        assert policy.backoff(9) == pytest.approx(0.5)

    def test_jitter_is_deterministic_with_seeded_rng(self):
        a = RetryPolicy(base=0.1, jitter=0.5, rng=random.Random(11))
        b = RetryPolicy(base=0.1, jitter=0.5, rng=random.Random(11))
        seq_a = [a.backoff(i) for i in range(1, 5)]
        seq_b = [b.backoff(i) for i in range(1, 5)]
        assert seq_a == seq_b
        # Jitter only ever stretches the wait, never shrinks it.
        assert all(x >= 0.1 for x in seq_a[:1])

    def test_wait_uses_injected_sleep(self):
        slept = []
        policy = RetryPolicy(base=0.25, jitter=0.0, sleep=slept.append)
        policy.wait(1)
        policy.wait(2)
        assert slept == [pytest.approx(0.25), pytest.approx(0.5)]


class TestClassifyWrites:
    def test_reads_are_not_writes(self):
        assert classify_writes("x[..100] >? 0") is False

    def test_assignment_is_a_write(self):
        assert classify_writes("x[0] = 1") is True

    def test_alias_definition_is_not_a_write(self):
        assert classify_writes("y := x[0]") is False

    def test_unparseable_is_tagged_conservatively(self):
        assert classify_writes("]]]") is True

    def test_string_literal_is_a_write(self):
        # It allocates target scratch space for its bytes.
        assert classify_writes('"abc"') is True


def piped_client():
    """A client wired to a raw socketpair (we play the server)."""
    ours, theirs = socket.socketpair()
    ours.settimeout(5)
    theirs.settimeout(5)
    client = DuelClient(connect=False)
    client._sock = theirs
    client._rfile = theirs.makefile("rb")
    client._wfile = theirs.makefile("wb")
    return client, ours


class TestReadFrame:
    def test_auto_pong_answers_server_pings(self):
        client, server = piped_client()
        try:
            server.sendall(protocol.encode({"ev": "ping", "seq": 7}))
            server.sendall(protocol.encode({"ev": "stats", "id": 1}))
            frame = client.read_frame()
            # The ping was swallowed; the real frame came through...
            assert frame == {"ev": "stats", "id": 1}
            # ...and the server got its pong back.
            pong = protocol.decode(server.makefile("rb").readline())
            assert pong == {"op": "pong", "seq": 7}
        finally:
            client._teardown()
            server.close()

    def test_eof_returns_none(self):
        client, server = piped_client()
        try:
            server.close()
            assert client.read_frame() is None
        finally:
            client._teardown()

    def test_garbage_raises_serve_error(self):
        client, server = piped_client()
        try:
            server.sendall(b"not json\n")
            with pytest.raises(ServeError, match="unreadable"):
                client.read_frame()
        finally:
            client._teardown()
            server.close()


def make_result(outcome, request_id=1, frame=None):
    return QueryResult(request_id, outcome, [], frame or {})


class ScriptedClient(DuelClient):
    """duel() machinery with the transport replaced by a script.

    ``script`` is a list consumed one entry per attempt: an Exception
    instance is raised from collect(), anything else is returned as
    the attempt's QueryResult.
    """

    def __init__(self, script, **kwargs):
        kwargs.setdefault("connect", False)
        kwargs.setdefault(
            "retry", RetryPolicy(retries=3, jitter=0.0,
                                 sleep=lambda _s: None))
        super().__init__(**kwargs)
        self.script = list(script)
        self.attempts = 0
        self.redials = 0
        self.idems_seen = []
        self._sock = object()          # "connected"

    def _redial(self):
        self.redials += 1
        self._sock = object()

    def _teardown(self):
        self._sock = None

    def start(self, text, idem=None, trace=None, profile=False):
        self.idems_seen.append(idem)
        return self._take_id()

    def collect(self, request_id, on_line=None):
        self.attempts += 1
        step = self.script.pop(0)
        if isinstance(step, Exception):
            raise step
        return step


class TestDuelRetry:
    def test_broken_conversation_is_retried(self):
        client = ScriptedClient([ServeError("connection lost"),
                                 make_result("done")])
        result = client.duel("x[..10]")
        assert result.outcome == "done"
        assert client.attempts == 2
        assert client.redials == 1     # reconnected between attempts

    def test_retries_exhausted_raises_with_count(self):
        client = ScriptedClient([ServeError("boom")] * 4)
        with pytest.raises(ServeError, match="after 4 attempts"):
            client.duel("x[..10]")
        assert client.attempts == 4    # 1 try + 3 retries

    def test_zero_retries_fails_fast(self):
        client = ScriptedClient(
            [ServeError("boom")],
            retry=RetryPolicy(retries=0, sleep=lambda _s: None))
        with pytest.raises(ServeError, match="after 1 attempt:"):
            client.duel("x[..10]")
        assert client.attempts == 1

    def test_write_query_gets_auto_idem_token_kept_across_retries(self):
        client = ScriptedClient([OSError("reset"), make_result("done")])
        client.duel("x[0] = 1")
        assert client.attempts == 2
        assert len(client.idems_seen) == 2
        token = client.idems_seen[0]
        assert token is not None and token.startswith("auto-")
        # The retry re-presents the *same* token: exactly-once.
        assert client.idems_seen[1] == token

    def test_read_query_gets_no_token(self):
        client = ScriptedClient([make_result("done")])
        client.duel("x[..10]")
        assert client.idems_seen == [None]

    def test_explicit_idem_wins_over_auto(self):
        client = ScriptedClient([make_result("done")])
        client.duel("x[0] = 1", idem="mine")
        assert client.idems_seen == ["mine"]

    def test_auto_idem_off(self):
        client = ScriptedClient([make_result("done")], auto_idem=False)
        client.duel("x[0] = 1")
        assert client.idems_seen == [None]

    def test_busy_rejection_with_token_is_retried(self):
        # The previous attempt still runs server-side: back off, then
        # the cached result replays.
        busy = make_result("rejected", frame={"reason": "busy"})
        replay = make_result("done", frame={"replayed": True})
        client = ScriptedClient([busy, replay])
        result = client.duel("x[0] = 1")
        assert result.outcome == "done"
        assert result.replayed is True
        assert client.attempts == 2

    def test_busy_rejection_without_token_returns(self):
        busy = make_result("rejected", frame={"reason": "busy"})
        client = ScriptedClient([busy])
        result = client.duel("x[..10]")
        assert result.outcome == "rejected"
        assert client.attempts == 1

    def test_alias_queries_remembered_for_replay(self):
        client = ScriptedClient([make_result("done")])
        client.duel("y := x[0]")
        assert client._alias_texts == ["y := x[0]"]


def refused(message="dial failed"):
    """A ServeError wrapping ECONNREFUSED, as the transport raises it."""
    error = ServeError(message)
    error.__cause__ = ConnectionRefusedError(errno.ECONNREFUSED,
                                             "connection refused")
    return error


class TestConnectionRefusedDetection:
    def test_bare_refusal(self):
        assert _connection_refused(ConnectionRefusedError())

    def test_oserror_with_errno(self):
        assert _connection_refused(OSError(errno.ECONNREFUSED, "nope"))

    def test_wrapped_refusal_via_cause_chain(self):
        assert _connection_refused(refused())

    def test_wrapped_refusal_via_context_chain(self):
        outer = ServeError("broken")
        outer.__context__ = ConnectionRefusedError()
        assert _connection_refused(outer)

    def test_other_errors_are_not_refusals(self):
        assert not _connection_refused(ServeError("timeout"))
        assert not _connection_refused(OSError(errno.EPIPE, "pipe"))
        assert not _connection_refused(None)

    def test_cyclic_cause_chain_terminates(self):
        a = ServeError("a")
        b = ServeError("b")
        a.__cause__ = b
        b.__cause__ = a
        assert not _connection_refused(a)


class TestRestartWindow:
    """Refused dials during a server restart are patience, not retries."""

    def test_refusals_inside_window_not_charged(self):
        # retries=0 would normally fail on the first error; with the
        # window open, refused dials wait it out and the query lands.
        client = ScriptedClient(
            [refused(), refused(), make_result("done")],
            retry=RetryPolicy(retries=0, jitter=0.0,
                              sleep=lambda _s: None),
            restart_window=60.0)
        result = client.duel("x[..10]")
        assert result.outcome == "done"
        assert client.attempts == 3

    def test_non_refusal_errors_still_charged(self):
        client = ScriptedClient(
            [ServeError("reset mid-query")],
            retry=RetryPolicy(retries=0, jitter=0.0,
                              sleep=lambda _s: None),
            restart_window=60.0)
        with pytest.raises(ServeError, match="after 1 attempt"):
            client.duel("x[..10]")

    def test_window_expiry_charges_refusals(self):
        # A microscopic window: the first refusal opens the streak,
        # the second falls outside it and is charged like any error.
        client = ScriptedClient(
            [refused(), refused(), refused()],
            retry=RetryPolicy(retries=0, jitter=0.0,
                              sleep=lambda _s: None),
            restart_window=1e-9)
        with pytest.raises(ServeError, match="after 1 attempt"):
            client.duel("x[..10]")

    def test_window_off_by_default(self):
        client = ScriptedClient(
            [refused()],
            retry=RetryPolicy(retries=0, jitter=0.0,
                              sleep=lambda _s: None))
        with pytest.raises(ServeError):
            client.duel("x[..10]")

    def test_success_resets_the_streak(self):
        client = ScriptedClient(
            [refused(), make_result("done")],
            retry=RetryPolicy(retries=0, jitter=0.0,
                              sleep=lambda _s: None),
            restart_window=60.0)
        client.duel("x[..10]")
        assert client._refused_since is None


class FakeResultClient:
    """Patches DuelClient so ``main`` sees scripted query results."""

    def __init__(self, monkeypatch, outcomes):
        results = [QueryResult(i + 1, outcome, [],
                               {"reason": "busy"} if outcome == "rejected"
                               else {"error": "boom"})
                   for i, outcome in enumerate(outcomes)]
        monkeypatch.setattr(DuelClient, "connect",
                            lambda self, resume=True: None)
        monkeypatch.setattr(DuelClient, "close", lambda self: None)
        monkeypatch.setattr(DuelClient, "duel",
                            lambda self, text, on_line=None, idem=None:
                            results.pop(0))


class TestMainExitCodes:
    def test_done_is_zero(self, monkeypatch, capsys):
        FakeResultClient(monkeypatch, ["done"])
        assert client_main(["--port", "1", "--expr", "1"]) == 0

    def test_truncated_and_cancelled_are_zero(self, monkeypatch, capsys):
        FakeResultClient(monkeypatch, ["truncated", "cancelled"])
        assert client_main(["--port", "1", "--expr", "a",
                            "--expr", "b"]) == 0

    def test_rejected_is_three(self, monkeypatch, capsys):
        FakeResultClient(monkeypatch, ["rejected"])
        assert client_main(["--port", "1", "--expr", "1"]) == 3
        assert "rejected: busy" in capsys.readouterr().out

    def test_faulted_is_four(self, monkeypatch, capsys):
        FakeResultClient(monkeypatch, ["faulted"])
        assert client_main(["--port", "1", "--expr", "1"]) == 4

    def test_batch_returns_worst(self, monkeypatch, capsys):
        FakeResultClient(monkeypatch, ["done", "faulted", "rejected"])
        assert client_main(["--port", "1", "--expr", "a", "--expr", "b",
                            "--expr", "c"]) == 4

    def test_dial_failure_is_two(self, capsys):
        # Port 1 on loopback: nothing listens there.
        code = client_main(["--port", "1", "--retries", "0",
                            "--connect-timeout", "1", "--expr", "1"])
        assert code == 2
        assert "error:" in capsys.readouterr().out

    def test_usage_error_is_one(self, capsys):
        # Not argparse's default 2, which means "connection failed".
        with pytest.raises(SystemExit) as caught:
            client_main(["--port", "1", "--no-such-flag"])
        assert caught.value.code == 1

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as caught:
            client_main(["--help"])
        assert caught.value.code == 0
        text = capsys.readouterr().out
        assert "exit codes" in text
        assert "retries were exhausted" in text
        assert "--restart-window" in text
