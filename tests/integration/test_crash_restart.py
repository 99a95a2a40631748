"""Integration: the DUEL service survives its own death.

The crash-only durability acceptance suite.  A server running with a
``--state-dir`` is killed — in-process via
:meth:`DuelServer.simulate_crash` (fast, deterministic) and for real
via a SIGKILLed subprocess — and a fresh server pointed at the same
directory must recover:

* **identical resume keys** — every parked/active session comes back
  resumable under the key its client already holds;
* **restored session state** — aliases, governor limits, and the
  idempotency cache survive the restart;
* **exactly-once writes** — committed (``--commit-writes``) queries'
  journaled deltas are applied in journal order; a retried
  idempotency token after the restart is answered from the recovered
  cache, never re-run;
* **torn tails tolerated** — a half-written final journal record is
  truncated on startup, never a refusal to start.
"""

import io
import json
import os
import shutil
import socket
import threading
import time
from types import SimpleNamespace

import pytest

from repro.bench import workloads
from repro.serve.chaos import ServerProcess, tear_tail
from repro.serve.client import DuelClient, RetryPolicy, ServeError
from repro.serve.server import DuelServer, run_server

ARRAY = 120


def wait_until(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def fast_retry(retries=4):
    return RetryPolicy(retries=retries, base=0.2, factor=1.5,
                       max_backoff=0.5, jitter=0.0)


def make_server(state_dir, program=None, **kwargs):
    """A durable server over the deterministic big-array target."""
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("queue_depth", 16)
    kwargs.setdefault("max_clients", 8)
    kwargs.setdefault("per_client", 1)
    kwargs.setdefault("drain_timeout", 5.0)
    kwargs.setdefault("heartbeat_interval", 0.0)
    kwargs.setdefault("resume_ttl", 60.0)
    kwargs.setdefault("journal_fsync", "off")
    kwargs.setdefault("checkpoint_interval", 0.0)   # manual only
    kwargs.setdefault("commit_writes", True)
    server = DuelServer(program or workloads.big_array(ARRAY),
                        state_dir=str(state_dir), **kwargs)
    server.start()
    return server


def connect(port, resume_key=None):
    client = DuelClient(port=port, connect=False, timeout=10.0,
                        retry=fast_retry())
    if resume_key is not None:
        client._resume_key = resume_key
    client.connect()
    return client


def last_value(result):
    assert result.lines, f"no output lines in {result!r}"
    return result.lines[-1]


class TestCrashRecovery:
    """In-process simulated crashes (no subprocess)."""

    def crash_and_restart(self, server, state_dir, **kwargs):
        server.simulate_crash()
        return make_server(state_dir, **kwargs)

    def test_resume_key_and_session_state_survive(self, tmp_path):
        server = make_server(tmp_path / "state")
        restarted = None
        try:
            client = connect(server.port)
            key = client._resume_key
            assert key
            assert client.duel("t := x[3]").ok
            client.limits("lines", 123)
            client._teardown()              # vanish, no clean bye

            restarted = self.crash_and_restart(server, tmp_path / "state")
            assert restarted.recovered_sessions == 1

            again = connect(restarted.port, resume_key=key)
            assert again.resumed
            assert again._resume_key == key
            # The alias value was restored...
            assert again.duel("t").ok
            # ...and the governor limit set before the crash holds.
            assert again.limits()["limits"]["lines"] == 123
            again.close()
        finally:
            for s in (server, restarted):
                if s is not None:
                    s.stop()

    def test_committed_writes_replayed_exactly_once(self, tmp_path):
        server = make_server(tmp_path / "state")
        restarted = None
        try:
            client = connect(server.port)
            key = client._resume_key
            result = client.duel("x[3] = 777", idem="tok-1")
            assert result.ok
            client._teardown()

            restarted = self.crash_and_restart(server, tmp_path / "state")
            assert restarted.applied_writes == 1

            again = connect(restarted.port, resume_key=key)
            assert again.resumed
            # The write's effect was recovered...
            assert last_value(again.duel("x[3]")) == "x[3] = 777"
            # ...and retrying its token replays from the recovered
            # cache instead of running the query a second time.
            retry = again.duel("x[3] = 777", idem="tok-1")
            assert retry.ok
            assert retry.replayed
            # An increment proves single application numerically.
            assert again.duel("x[3] = x[3] + 1", idem="tok-2").ok
            assert last_value(again.duel("x[3]")) == "x[3] = 778"
            again.close()
        finally:
            for s in (server, restarted):
                if s is not None:
                    s.stop()

    def test_retry_across_the_write_idem_gap_is_replayed(self, tmp_path):
        """A crash right after a committed write's ``write`` record
        still leaves its token answered from the cache: the entry
        rides in that record, no ``idem`` record follows it."""
        state = tmp_path / "state"
        cut = tmp_path / "cut"
        kinds = []

        def copy_after_the_write():
            if kinds[-1] == "write" and not cut.exists():
                shutil.copytree(state, cut)

        server = make_server(state, journal_sync_hook=copy_after_the_write)
        journal = server.store.journal
        append = journal.append

        def recording_append(kind, **fields):
            kinds.append(kind)
            return append(kind, **fields)

        journal.append = recording_append
        restarted = None
        try:
            client = connect(server.port)
            key = client._resume_key
            before = int(last_value(client.duel("x[3]")).split("=")[-1])
            assert client.duel("x[3] = x[3] + 1", idem="tok").ok
            client.close()
            assert kinds[:2] == ["sess_open", "write"]
            server.simulate_crash()

            restarted = make_server(cut)
            again = connect(restarted.port, resume_key=key)
            assert again.resumed
            want = f"x[3] = {before + 1}"
            assert last_value(again.duel("x[3]")) == want
            retry = again.duel("x[3] = x[3] + 1", idem="tok")
            assert retry.ok
            assert retry.replayed
            assert last_value(again.duel("x[3]")) == want
            again.close()
            assert "idem" not in kinds
        finally:
            for s in (server, restarted):
                if s is not None:
                    s.stop()

    def test_checkpoint_bounds_replay_and_truncates(self, tmp_path):
        server = make_server(tmp_path / "state")
        restarted = None
        try:
            client = connect(server.port)
            key = client._resume_key
            assert client.duel("x[1] = 11", idem="w1").ok
            mark = server.checkpoint()
            assert mark and mark > 0
            # The checkpoint sealed + dropped the old segments.
            assert len(server.store.journal.segments()) == 1
            assert client.duel("x[2] = 22", idem="w2").ok
            client._teardown()

            restarted = self.crash_and_restart(server, tmp_path / "state")
            # Only the post-checkpoint write needed applying.
            assert restarted.applied_writes == 1

            again = connect(restarted.port, resume_key=key)
            assert again.resumed
            assert last_value(again.duel("x[1]")) == "x[1] = 11"
            assert last_value(again.duel("x[2]")) == "x[2] = 22"
            again.close()
        finally:
            for s in (server, restarted):
                if s is not None:
                    s.stop()

    def test_torn_journal_tail_is_truncated_not_fatal(self, tmp_path):
        server = make_server(tmp_path / "state")
        restarted = None
        try:
            client = connect(server.port)
            key = client._resume_key
            assert client.duel("x[1] = 11", idem="w1").ok
            assert client.duel("x[2] = 22", idem="w2").ok
            client._teardown()
            server.simulate_crash()

            # A crash mid-append: the final record loses its tail.
            segments = server.store.journal.segments()
            tear_tail(segments[-1][1], 4)

            restarted = make_server(tmp_path / "state")
            assert restarted.store.journal.recovered_torn_tail
            # Everything before the torn record recovered; the state
            # is consistent even though the tail was dropped.
            assert restarted.recovered_sessions == 1
            again = connect(restarted.port, resume_key=key)
            assert again.resumed
            assert last_value(again.duel("x[1]")) == "x[1] = 11"
            again.close()
        finally:
            for s in (server, restarted):
                if s is not None:
                    s.stop()

    def test_clean_stop_checkpoints_for_fast_restart(self, tmp_path):
        server = make_server(tmp_path / "state")
        client = connect(server.port)
        key = client._resume_key
        assert client.duel("x[4] = 44", idem="w1").ok
        client._teardown()
        # Let the server notice the vanished client and park the
        # session before the drain begins (a drain-time disconnect
        # closes instead of parking).
        assert wait_until(lambda: server.sessions.parked_count() == 1)
        server.stop()                       # clean: final checkpoint

        restarted = make_server(tmp_path / "state")
        try:
            # The shutdown checkpoint covered everything: nothing to
            # apply, yet the state is all there.
            assert restarted.applied_writes == 0
            assert restarted.recovered_sessions == 1
            again = connect(restarted.port, resume_key=key)
            assert again.resumed
            assert last_value(again.duel("x[4]")) == "x[4] = 44"
            again.close()
        finally:
            restarted.stop()

    def test_cold_start_on_empty_state_dir(self, tmp_path):
        server = make_server(tmp_path / "fresh")
        try:
            assert server.recovered_sessions == 0
            assert server.applied_writes == 0
            client = connect(server.port)
            assert client.duel("x[..3]").ok
            client.close()
        finally:
            server.stop()

    def test_unknown_resume_key_after_restart_gets_fresh_session(
            self, tmp_path):
        server = make_server(tmp_path / "state")
        restarted = None
        try:
            client = connect(server.port)
            client.close()                  # clean bye: sess_close
            # The bye is processed asynchronously; crash only after
            # the close made it into the journal.
            assert wait_until(lambda: any(
                record["k"] == "sess_close"
                for _, record in server.store.journal.replay()))
            restarted = self.crash_and_restart(server, tmp_path / "state")
            # The closed session is not resurrected...
            assert restarted.recovered_sessions == 0
            # ...and presenting its key just yields a fresh session.
            again = connect(restarted.port,
                            resume_key=client._resume_key)
            assert not again.resumed
            assert again.duel("x[..3]").ok
            again.close()
        finally:
            for s in (server, restarted):
                if s is not None:
                    s.stop()

    def test_client_restart_window_rides_out_the_gap(self, tmp_path):
        """duel() with a restart window survives crash + restart."""
        server = make_server(tmp_path / "state")
        restarted = {}
        try:
            client = DuelClient(port=server.port, timeout=10.0,
                                retry=fast_retry(retries=6),
                                restart_window=20.0)
            key = client._resume_key
            assert client.duel("x[5] = 55", idem="w1").ok

            def restart_later():
                time.sleep(0.5)
                restarted["server"] = make_server(tmp_path / "state",
                                                  port=server.port)

            server.simulate_crash()
            flip = threading.Thread(target=restart_later)
            flip.start()
            try:
                # Issued while the port is dead: refused dials wait
                # out the restart instead of burning retries, then
                # the resumed session answers.
                result = client.duel("x[5]")
            finally:
                flip.join()
            assert result.ok
            assert last_value(result) == "x[5] = 55"
            assert client._resume_key == key
            client.close()
        finally:
            server.stop()
            if "server" in restarted:
                restarted["server"].stop()


class TestRecoveryRestoresAcknowledgedState:
    """Recovery restores the journaled effects and alias values — what
    the server acknowledged — and re-runs no query text, so nothing a
    text would read differently after the fact can diverge."""

    def crash_and_resume(self, server, state_dir, key, **kwargs):
        server.simulate_crash()
        restarted = make_server(state_dir, **kwargs)
        client = connect(restarted.port, resume_key=key)
        assert client.resumed
        return restarted, client

    def reads(self, client, *texts):
        return [last_value(client.duel(text)) for text in texts]

    def test_alias_defined_before_a_checkpoint_keeps_its_value(
            self, tmp_path):
        server = make_server(tmp_path / "state")
        restarted = None
        try:
            client = connect(server.port)
            key = client._resume_key
            cell = self.reads(client, "x[3]")[0].split(" = ")[1]
            assert client.duel("y := x[3] + 0").ok
            assert client.duel("x[3] = 555").ok
            server.checkpoint()
            first = client.duel("x[0] = y", idem="tok")
            before = self.reads(client, "x[0]", "y")
            assert before == [f"x[0] = {cell}", f"y = {cell}"]
            client._teardown()

            restarted, again = self.crash_and_resume(
                server, tmp_path / "state", key)
            assert self.reads(again, "x[0]", "y") == before
            # The retried token's cached answer matches the target.
            retry = again.duel("x[0] = y", idem="tok")
            assert retry.replayed and retry.lines == first.lines
            assert self.reads(again, "x[0]") == before[:1]
            again.close()
        finally:
            for s in (server, restarted):
                if s is not None:
                    s.stop()

    def test_redefined_alias_keeps_its_latest_value(self, tmp_path):
        server = make_server(tmp_path / "state")
        restarted = None
        try:
            client = connect(server.port)
            key = client._resume_key
            for text in ("y := x[3] + 0", "x[3] = 555", "y := x[3] + 0",
                         "x[0] = y"):
                assert client.duel(text).ok
            before = self.reads(client, "x[0]", "y")
            assert before == ["x[0] = 555", "y = 555"]
            client._teardown()

            restarted, again = self.crash_and_resume(
                server, tmp_path / "state", key)
            assert self.reads(again, "x[0]", "y") == before
            again.close()
        finally:
            for s in (server, restarted):
                if s is not None:
                    s.stop()

    @pytest.mark.parametrize("text, alias, commit", [
        ("x[..3]#k", "k", True),
        ("w := 9; x[0] = x[200000000]", "w", True),     # faults
        ("int j; j = 3", "j", False),                   # rolled back
    ])
    def test_alias_bound_by_any_query_survives(self, tmp_path, text,
                                               alias, commit):
        server = make_server(tmp_path / "state", commit_writes=commit)
        restarted = None
        try:
            client = connect(server.port)
            key = client._resume_key
            client.duel(text)
            before = client.duel(alias)
            assert before.ok
            client._teardown()

            restarted, again = self.crash_and_resume(
                server, tmp_path / "state", key, commit_writes=commit)
            assert again.duel(alias).lines == before.lines
            again.close()
        finally:
            for s in (server, restarted):
                if s is not None:
                    s.stop()

    def test_typedef_and_frame_aliases_survive_a_checkpoint(self, tmp_path):
        from repro.ctype.types import INT

        def build():
            program = workloads.big_array(ARRAY)
            program.declare("typedef int cell; cell tv;")
            frame = program.stack.push("outer")
            frame.declare("depth", INT)
            program.write_value(frame.symbols.lookup("depth").address,
                                INT, 1)
            return program

        server = make_server(tmp_path / "state", program=build())
        restarted = None
        try:
            client = connect(server.port)
            key = client._resume_key
            for text in ("tv = 7", "t := tv", "f := frame(0)"):
                assert client.duel(text).ok
            server.checkpoint()
            before = self.reads(client, "t", "f.depth")
            assert before == ["t = 7", "depth = 1"]
            client._teardown()

            restarted, again = self.crash_and_resume(
                server, tmp_path / "state", key, program=build())
            assert self.reads(again, "t", "f.depth") == before
            again.close()
        finally:
            for s in (server, restarted):
                if s is not None:
                    s.stop()

    def test_recovery_runs_no_query(self, tmp_path, monkeypatch):
        from repro.core.session import DuelSession
        server = make_server(tmp_path / "state")
        restarted = None
        try:
            client = connect(server.port)
            assert client.duel("y := x[2], x[1] = 11").ok
            client._teardown()
            server.simulate_crash()
            calls = []
            for name in ("ievents", "prepare"):
                monkeypatch.setattr(
                    DuelSession, name,
                    lambda self, *args, _name=name, **kwargs:
                        calls.append(_name))
            restarted = make_server(tmp_path / "state")
            assert calls == []
            assert restarted.applied_writes == 1
            assert restarted.recovered_sessions == 1
            monkeypatch.undo()
            (entry,) = restarted.sessions.export_state()
            assert list(entry["aliases"]) == ["y"]
        finally:
            monkeypatch.undo()
            for s in (server, restarted):
                if s is not None:
                    s.stop()


class TestRunServerCrashDump:
    """Satellite: an unhandled main-loop exception leaves a black box."""

    def test_server_crash_dump_and_exit_code(self, tmp_path):
        class Boom:
            def is_set(self):
                return False

            def set(self):
                pass

            def wait(self, timeout=None):
                raise RuntimeError("synthetic main-loop crash")

        ns = SimpleNamespace(
            query_log=None, dump_dir=str(tmp_path / "dumps"),
            host="127.0.0.1", port=0, workers=2, queue_depth=4,
            max_clients=4, per_client=1, drain_timeout=2.0,
            metrics_port=None, no_symbolic=True, optimize=False)
        out = io.StringIO()
        code = run_server(ns, workloads.big_array(10), {}, out,
                          stop_event=Boom())
        assert code == 1
        text = out.getvalue()
        assert "fatal: RuntimeError: synthetic main-loop crash" in text
        assert "post-mortem dump:" in text
        dumps = os.listdir(tmp_path / "dumps")
        assert len(dumps) == 1
        with open(tmp_path / "dumps" / dumps[0]) as handle:
            dump = json.load(handle)
        assert dump["reason"] == "server_crash"


class TestRunServerErrorExits:
    """An error exit closes everything run_server opened before it."""

    @pytest.fixture
    def closed(self, monkeypatch):
        from repro.obs.access import AccessLog
        from repro.obs.qlog import QueryLog
        from repro.obs.reqtrace import TraceLog
        from repro.serve.journal import StateStore

        names = []
        for cls in (QueryLog, TraceLog, AccessLog, StateStore):
            def close(self, original=cls.close, name=cls.__name__):
                names.append(name)
                original(self)
            monkeypatch.setattr(cls, "close", close)
        return names

    def run(self, tmp_path, stop_event=None, **overrides):
        ns = SimpleNamespace(
            query_log=str(tmp_path / "queries.jsonl"), dump_dir=None,
            trace_json=str(tmp_path / "traces.jsonl"),
            access_trace=str(tmp_path / "accesses.jsonl"),
            state_dir=str(tmp_path / "state"),
            host="127.0.0.1", port=0, workers=2, queue_depth=4,
            max_clients=4, per_client=1, drain_timeout=2.0,
            metrics_port=None, no_symbolic=True)
        vars(ns).update(overrides)
        out = io.StringIO()
        code = run_server(ns, workloads.big_array(10), {}, out,
                          stop_event=stop_event)
        return code, out.getvalue()

    @pytest.mark.parametrize("busy", ["port", "metrics_port"])
    def test_busy_port_closes_logs_and_store(self, tmp_path, closed, busy):
        with socket.socket() as blocker:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            code, text = self.run(tmp_path,
                                  **{busy: blocker.getsockname()[1]})
        assert code == 1
        assert text.startswith("error: ")
        assert sorted(closed) == ["AccessLog", "QueryLog", "StateStore",
                                  "TraceLog"]

    @pytest.mark.parametrize("written_by", ["checkpoint", "journal"])
    def test_format_1_state_dir_refused(self, tmp_path, closed,
                                        written_by):
        from repro.serve.journal import Journal
        state = tmp_path / "state"
        if written_by == "checkpoint":
            (state / "checkpoint").mkdir(parents=True)
            (state / "checkpoint" / "ckpt-000000000002.snap").write_bytes(
                b"DUELCKPT1\n" + bytes(64))
        else:
            journal = Journal(str(state / "journal"), fsync="off")
            journal.append("sess_open", key="A", client="c1", limits={})
            journal.append("write", key="A", text="x[0] = 1",
                           outcome="done")
            journal.close()
        served = threading.Event()
        served.set()             # a server that starts stops at once
        code, text = self.run(tmp_path, stop_event=served)
        assert code == 1
        assert text.startswith("error: ") and "format 1" in text
        assert "StateStore" in closed

    def test_server_construction_error_closes_logs(self, tmp_path, closed):
        code, text = self.run(tmp_path, workers=0)
        assert (code, text) == (1, "error: need at least one worker\n")
        assert sorted(closed) == ["AccessLog", "QueryLog", "TraceLog"]


class TestSigkillSubprocess:
    """The end-to-end proof: a real process, a real SIGKILL."""

    SOURCE = """\
int data[32];

int main(void) {
    return 0;
}
"""

    def test_sigkill_restart_recovers_everything(self, tmp_path):
        source = tmp_path / "target.c"
        source.write_text(self.SOURCE)
        state = tmp_path / "state"
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env["PYTHONPATH"] = os.path.join(root, "src")
        proc = ServerProcess([
            str(source), "--serve", "--port", "0",
            "--state-dir", str(state), "--commit-writes",
            "--journal-fsync", "off", "--checkpoint-interval", "0",
            "--resume-ttl", "120", "--heartbeat-interval", "0",
            "--workers", "2"], timeout=60.0, env=env)
        try:
            port = proc.start()
            client = connect(port)
            key = client._resume_key
            assert client.duel("data[7] = 99", idem="tok-7").ok
            assert client.duel("t := data[7]").ok

            proc.sigkill()
            started = time.monotonic()
            new_port = proc.restart()
            recovery = time.monotonic() - started
            assert recovery < 30.0, f"recovery took {recovery:.1f}s"
            assert any("state:" in line for line in proc.stdout_lines)

            again = connect(new_port, resume_key=key)
            assert again.resumed
            assert last_value(again.duel("data[7]")) == "data[7] = 99"
            assert last_value(again.duel("t")) == "t = 99"
            retry = again.duel("data[7] = 99", idem="tok-7")
            assert retry.ok and retry.replayed
            again.close()
        finally:
            proc.terminate()
