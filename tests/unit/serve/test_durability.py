"""Unit tests for durable session state: journaled lifecycle,
commit-writes mode, export/resurrect, parked-TTL boundaries, and the
one snapshot a served write takes."""

import io
import threading

import pytest

from repro.bench import workloads
from repro.serve import sessions as sessions_module
from repro.serve.journal import Journal, fold_sessions, unpack
from repro.serve.sessions import QueryLease, SessionManager
from repro.target import snapshot


@pytest.fixture
def program():
    return workloads.big_array(50)


@pytest.fixture
def journal(tmp_path):
    return Journal(str(tmp_path / "journal"), fsync="off")


@pytest.fixture
def manager(program, journal):
    return SessionManager(program, journal=journal)


def drain(manager, client, text):
    """Run one query to completion; returns (outcome, lines, info)."""
    lines = []
    for kind, payload in manager.run(client, text):
        if kind == "value":
            lines.append(payload)
        else:
            return kind, lines, payload
    raise AssertionError("no terminal event")


def journaled(journal):
    return [record for _, record in journal.replay()]


def alias_records(journal):
    """Each journaled alias binding as ``(name, rendered value)``."""
    bound = []
    for record in journaled(journal):
        if "aliases" in record:
            for name, value in unpack(record["aliases"]).items():
                bound.append((name, rendered(value)))
    return bound


def rendered(value):
    """What a bound alias is: its type, place or number, and symbol."""
    return (value.ctype.name(), value.address, value.value,
            value.sym.render())


class FakeClock:
    """Stand-in for the ``time`` module inside the sessions module."""

    def __init__(self, now=1000.0):
        self.now = now

    def monotonic(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(sessions_module, "time", fake)
    return fake


class TestParkTtlBoundary:
    """Satellite: the exact TTL edge and the sweep/resume race."""

    def test_resume_exactly_at_expiry_succeeds(self, manager, clock):
        client = manager.open("c1")
        key = client.resume_key
        manager.park(client, ttl=5.0)
        clock.now += 5.0                       # now == expiry, not past
        resumed = manager.resume(key, "c2")
        assert resumed is client
        assert resumed.client_id == "c2"

    def test_resume_just_past_expiry_is_unknown_key(self, manager, clock):
        client = manager.open("c1")
        key = client.resume_key
        manager.park(client, ttl=5.0)
        clock.now += 5.0001
        assert manager.resume(key, "c2") is None
        # The expired entry was popped, not left half-alive: the key
        # stays unknown and the session is attached nowhere.
        assert manager.resume(key, "c3") is None
        assert manager.get("c2") is None
        assert manager.parked_count() == 0

    def test_sweep_exactly_at_expiry_keeps(self, manager, clock):
        client = manager.open("c1")
        manager.park(client, ttl=5.0)
        clock.now += 5.0
        assert manager.sweep_parked() == 0
        assert manager.parked_count() == 1

    def test_sweep_past_expiry_drops_and_journals(self, manager, clock,
                                                  journal):
        client = manager.open("c1")
        key = client.resume_key
        manager.park(client, ttl=5.0)
        clock.now += 6.0
        assert manager.sweep_parked() == 1
        assert manager.parked_count() == 0
        closes = [r for r in journaled(journal)
                  if r["k"] == "sess_close" and r["key"] == key]
        assert len(closes) == 1

    def test_expired_resume_journals_close(self, manager, clock, journal):
        client = manager.open("c1")
        key = client.resume_key
        manager.park(client, ttl=1.0)
        clock.now += 2.0
        assert manager.resume(key, "c2") is None
        kinds = [r["k"] for r in journaled(journal)
                 if r.get("key") == key]
        assert kinds == ["sess_open", "sess_park", "sess_close"]

    def test_sweep_racing_resume_is_atomic(self, program):
        """Each parked key is resumed XOR swept, never half-restored."""
        manager = SessionManager(program)
        keys = []
        for i in range(24):
            client = manager.open(f"c{i}")
            keys.append(client.resume_key)
            manager.park(client, ttl=0.010)    # expires mid-hammer

        resumed: dict[str, object] = {}
        start = threading.Barrier(3)

        def resumer():
            start.wait()
            for i, key in enumerate(keys):
                got = manager.resume(key, f"r{i}")
                if got is not None:
                    resumed[key] = (got, f"r{i}")

        def sweeper():
            start.wait()
            for _ in range(200):
                manager.sweep_parked()

        threads = [threading.Thread(target=resumer),
                   threading.Thread(target=sweeper),
                   threading.Thread(target=sweeper)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        for key in keys:
            if key in resumed:
                client, client_id = resumed[key]
                # Fully restored: attached under the new id, counters
                # reset, and gone from the parked table.
                assert manager.get(client_id) is client
                assert client.client_id == client_id
                assert client.inflight == 0
                assert client.generation == 2
            # Either way the key is spent: a later resume never
            # produces a second half-alive copy.
            assert manager.resume(key, "late") is None
        assert manager.parked_count() == 0


class TestJournaledLifecycle:
    def test_open_close_journaled_once(self, manager, journal):
        client = manager.open("c1")
        manager.open("c1")                     # same session, no record
        manager.close("c1")
        records = journaled(journal)
        assert [r["k"] for r in records] == ["sess_open", "sess_close"]
        assert records[0]["key"] == client.resume_key
        assert records[0]["client"] == "c1"
        assert isinstance(records[0]["limits"], dict)

    def test_limit_and_idem_helpers_journal(self, manager, journal):
        client = manager.open("c1")
        manager.note_limit(client, "steps", 123)
        manager.note_idem(client, "tok-9", {"outcome": {"ev": "done"}})
        kinds = {r["k"]: r for r in journaled(journal)}
        assert kinds["sess_limit"]["name"] == "steps"
        assert kinds["sess_limit"]["value"] == 123
        assert kinds["idem"]["token"] == "tok-9"

    def test_alias_values_journaled_on_every_rebind(self, manager,
                                                    journal):
        client = manager.open("c1")
        x = manager.program.lookup("x").address
        cell = int(drain(manager, client, "x[3]")[1][0].split(" = ")[1])
        assert drain(manager, client, "t := x[3]")[0] == "done"
        assert drain(manager, client, "t := x[3] + 0")[0] == "done"
        assert drain(manager, client, "x[..3]#k")[0] == "done"
        assert drain(manager, client, "t")[0] == "done"    # binds none
        # One record per binding query, each holding the value bound:
        # an lvalue's place, an rvalue's number, the last index.
        assert [r["k"] for r in journaled(journal)] == \
            ["sess_open"] + ["sess_alias"] * 3
        assert alias_records(journal) == [
            ("t", ("int", x + 12, None, "x[3]")),
            ("t", ("int", None, cell, "x[3]+0")),
            ("k", ("int", None, 2, "2"))]

    def test_no_journal_no_alias_bookkeeping(self, program):
        manager = SessionManager(program)
        client = manager.open("c1")
        drain(manager, client, "t := x[3]")
        assert client.journaled_aliases == {}

    def test_park_eviction_journals_close(self, program, journal):
        manager = SessionManager(program, journal=journal)
        first = manager.open("c0")
        manager.park(first, ttl=60.0)
        for i in range(manager.PARK_MAX):
            manager.park(manager.open(f"c{i + 1}"), ttl=60.0)
        closes = [r["key"] for r in journaled(journal)
                  if r["k"] == "sess_close"]
        assert first.resume_key in closes

    def test_fold_round_trips_manager_history(self, manager, journal):
        client = manager.open("c1")
        drain(manager, client, "t := x[0]")
        manager.note_limit(client, "lines", 99)
        manager.park(client, ttl=60.0)
        resumed = manager.resume(client.resume_key, "c2")
        assert resumed is client
        state, writes = fold_sessions({}, journal.replay())
        entry = state[client.resume_key]
        assert entry["client_id"] == "c2"
        assert entry["limits"]["lines"] == 99
        assert {name: rendered(value)
                for name, value in entry["aliases"].items()} == \
            {"t": rendered(client.session.aliases()["t"])}
        assert writes == []


class TestCommitWrites:
    def test_done_write_keeps_effects_and_journals(self, program, journal):
        manager = SessionManager(program, journal=journal,
                                 commit_writes=True)
        writer = manager.open("w")
        reader = manager.open("r")
        assert drain(manager, writer, "x[3] = 777")[0] == "done"
        # The effect outlived the query and is visible cross-session —
        # the exact opposite of the default snapshot isolation.
        assert drain(manager, reader, "x[3]")[1] == ["x[3] = 777"]
        writes = [r for r in journaled(journal) if r["k"] == "write"]
        assert len(writes) == 1
        assert writes[0]["text"] == "x[3] = 777"
        assert writes[0]["key"] == writer.resume_key
        # The record is the effect: the four stored bytes, nothing else.
        delta = unpack(writes[0]["delta"])
        assert delta["state"] == {}
        x = program.lookup("x").address
        runs = [(base + offset, chunk)
                for _, base, _, _, region_runs in delta["regions"]
                for offset, chunk in region_runs]
        assert len(runs) == 1
        start, chunk = runs[0]
        assert start <= x + 12 and x + 16 <= start + len(chunk)
        assert chunk[x + 12 - start:x + 16 - start] == \
            (777).to_bytes(4, "little", signed=True)

    def test_committed_write_carries_its_aliases(self, program, journal):
        manager = SessionManager(program, journal=journal,
                                 commit_writes=True)
        writer = manager.open("w")
        assert drain(manager, writer, "y := 5, x[3] = y")[0] == "done"
        kinds = [r["k"] for r in journaled(journal)]
        assert kinds == ["sess_open", "write"]   # one record per query
        assert alias_records(journal) == [("y", ("int", None, 5, "5"))]

    def test_truncated_write_rolls_back_unjournaled(self, program,
                                                    journal):
        manager = SessionManager(program, journal=journal,
                                 commit_writes=True)
        writer = manager.open("w")
        before = drain(manager, writer, "x[..50]")[1]
        writer.session.governor.set_limit("lines", 5)
        outcome, _, _ = drain(manager, writer, "x[..50] = 0")
        assert outcome == "truncated"
        writer.session.governor.set_limit("lines", 10_000)
        # Rolled back: no element kept the half-applied zero sweep.
        assert drain(manager, writer, "x[..50]")[1] == before
        assert [r for r in journaled(journal) if r["k"] == "write"] == []

    def test_default_mode_still_isolates(self, manager, journal):
        writer = manager.open("w")
        assert drain(manager, writer, "x[3] = 777")[0] == "done"
        assert drain(manager, writer, "x[3]")[1] != ["x[3] = 777"]
        assert [r for r in journaled(journal) if r["k"] == "write"] == []

    def test_commit_loses_to_forced_settle(self, program, journal):
        manager = SessionManager(program, journal=journal)
        client = manager.open("c1")
        manager._rw.acquire_write()
        checkpoint = snapshot.take(program)
        lease = QueryLease(manager, client, "write", checkpoint)
        manager._register(lease)
        assert lease.settle(forced=True)
        ran = []
        assert lease.commit(on_commit=lambda: ran.append(1)) is False
        assert ran == []                       # nothing journaled
        # The forced settle released the lock; a writer can get in.
        assert manager._rw.acquire_write(timeout=0.5)
        manager._rw.release_write()

    def test_settle_after_commit_is_noop(self, program):
        manager = SessionManager(program, commit_writes=True)
        client = manager.open("c1")
        manager._rw.acquire_write()
        lease = QueryLease(manager, client, "write",
                           snapshot.take(program))
        manager._register(lease)
        assert lease.commit()
        assert lease.settle() is False
        assert manager._rw.acquire_write(timeout=0.5)
        manager._rw.release_write()


class TestExportResurrect:
    def test_round_trip(self, program):
        manager = SessionManager(program)
        client = manager.open("c1")
        client.session.governor.set_limit("lines", 77)
        drain(manager, client, "t := x[0]")
        client.idem_store("tok", {"outcome": {"ev": "done", "values": 1}})
        (entry,) = manager.export_state()
        assert entry["key"] == client.resume_key
        assert entry["limits"]["lines"] == 77
        assert list(entry["aliases"]) == ["t"]
        assert "tok" in entry["idem"]

        fresh = SessionManager(workloads.big_array(50))
        revived = fresh.resurrect(entry)
        assert revived.resume_key == client.resume_key
        assert revived.session.governor.limits["lines"] == 77
        assert rendered(revived.session.aliases()["t"]) == \
            rendered(client.session.aliases()["t"])
        assert drain(fresh, revived, "t")[1] == drain(manager, client,
                                                      "t")[1]
        assert revived.idem_lookup("tok")["outcome"]["ev"] == "done"

    def test_export_covers_parked_skips_poisoned(self, program):
        manager = SessionManager(program)
        parked = manager.open("gone")
        manager.park(parked, ttl=60.0)
        live = manager.open("live")
        bad = manager.open("bad")
        bad.poisoned = True
        keys = {entry["key"] for entry in manager.export_state()}
        assert keys == {parked.resume_key, live.resume_key}

    def test_resurrect_ignores_bogus_limits(self, program):
        manager = SessionManager(program)
        revived = manager.resurrect({
            "key": "k", "client_id": "c",
            "limits": {"no_such_limit": 5, "lines": 9},
            "aliases": {}, "idem": {}})
        assert revived.session.governor.limits["lines"] == 9

    def test_adopt_parked_is_resumable_and_silent(self, program, journal):
        manager = SessionManager(program, journal=journal)
        entry = {"key": "key-1", "client_id": "old", "limits": {},
                 "aliases": {}, "idem": {}}
        revived = manager.resurrect(entry)
        before = len(journaled(journal))
        assert manager.adopt_parked(revived, ttl=60.0)
        assert len(journaled(journal)) == before    # journals nothing
        resumed = manager.resume("key-1", "new")
        assert resumed is revived

    def test_resurrect_attaches_audit(self, program):
        # Recovery runs no query, so a resurrected session is audited
        # from the start like any other.
        from repro.obs.qlog import QueryLog
        qlog = QueryLog(io.StringIO())
        manager = SessionManager(program, qlog=qlog)
        revived = manager.resurrect({"key": "k", "client_id": "c",
                                     "limits": {}, "aliases": {},
                                     "idem": {}})
        assert revived.session.qlog is qlog


class TestOneSnapshotPerWrite:
    """The lease's snapshot is a served write's only one; the REPL,
    which has no lease, keeps the session's own."""

    FAULTING = "x[0] = x[200000000]"

    @pytest.fixture
    def counts(self, monkeypatch):
        counted = {"take": 0, "restore": 0}
        for name in counted:
            def counting(*args, _name=name,
                         _original=getattr(snapshot, name)):
                counted[_name] += 1
                return _original(*args)
            monkeypatch.setattr(snapshot, name, counting)
        return counted

    @pytest.mark.parametrize("commit", [False, True])
    @pytest.mark.parametrize("text, outcome", [("x[3]++", "done"),
                                               (FAULTING, "faulted")])
    def test_served_write(self, program, journal, counts, commit, text,
                          outcome):
        manager = SessionManager(program, journal=journal,
                                 commit_writes=commit)
        client = manager.open("c1")
        assert drain(manager, client, text)[0] == outcome
        kept = commit and outcome == "done"
        assert counts == {"take": 1, "restore": 0 if kept else 1}

    @pytest.mark.parametrize("text, restores", [("x[3]++", 0),
                                                (FAULTING, 1)])
    def test_repl_write(self, program, counts, text, restores):
        from repro.core.session import DuelSession
        from repro.target.interface import SimulatorBackend
        DuelSession(SimulatorBackend(program)).duel(text, out=io.StringIO())
        assert counts == {"take": 1, "restore": restores}
