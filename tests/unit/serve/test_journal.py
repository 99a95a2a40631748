"""Unit tests for the write-ahead journal and state store."""

import json
import os
import struct
import threading
import zlib

import pytest

from repro.serve.journal import (CHECKPOINT_MAGIC, FsyncPolicy, Journal,
                                 JournalError, StateStore, fold_sessions,
                                 pack)


@pytest.fixture
def journal(tmp_path):
    return Journal(str(tmp_path / "journal"), fsync="off")


def records_of(journal, after=0):
    return [record for _, record in journal.replay(after)]


class TestFsyncPolicy:
    def test_parse_always(self):
        assert FsyncPolicy.parse("always").mode == "always"

    def test_parse_off(self):
        assert FsyncPolicy.parse("off").mode == "off"
        assert FsyncPolicy.parse("").mode == "off"

    def test_parse_interval(self):
        policy = FsyncPolicy.parse("interval:2.5")
        assert policy.mode == "interval"
        assert policy.interval == 2.5

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            FsyncPolicy.parse("sometimes")
        with pytest.raises(ValueError):
            FsyncPolicy.parse("interval:zero")
        with pytest.raises(ValueError):
            FsyncPolicy.parse("interval:-1")

    def test_due(self):
        assert FsyncPolicy.parse("always").due(0.0, 0.0)
        assert not FsyncPolicy.parse("off").due(100.0, 0.0)
        interval = FsyncPolicy.parse("interval:1.0")
        assert not interval.due(10.5, 10.0)
        assert interval.due(11.0, 10.0)


class TestAppendReplay:
    def test_append_assigns_monotone_lsns(self, journal):
        lsns = [journal.append("sess_open", key=f"k{i}")
                for i in range(5)]
        assert lsns == [1, 2, 3, 4, 5]
        assert journal.lsn == 5

    def test_replay_round_trips_fields(self, journal):
        journal.append("write", key="k", text="x[0] = 1", outcome="done")
        (record,) = records_of(journal)
        assert record["k"] == "write"
        assert record["text"] == "x[0] = 1"
        assert record["outcome"] == "done"

    def test_replay_after_lsn_filters(self, journal):
        for i in range(4):
            journal.append("sess_open", key=f"k{i}")
        assert [r["key"] for r in records_of(journal, after=2)] \
            == ["k2", "k3"]

    def test_unknown_kind_rejected(self, journal):
        with pytest.raises(ValueError):
            journal.append("sess_explode", key="k")

    def test_reopen_continues_lsns(self, tmp_path):
        path = str(tmp_path / "journal")
        first = Journal(path, fsync="off")
        first.append("sess_open", key="a")
        first.append("sess_open", key="b")
        first.close()
        second = Journal(path, fsync="off")
        assert second.lsn == 2
        assert second.append("sess_open", key="c") == 3
        assert [r["key"] for r in records_of(second)] == ["a", "b", "c"]

    def test_thread_safe_appends(self, journal):
        def hammer(start):
            for i in range(50):
                journal.append("idem", key="k", token=f"t{start}-{i}",
                               result={})
        threads = [threading.Thread(target=hammer, args=(n,))
                   for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        records = records_of(journal)
        assert len(records) == 200
        assert journal.lsn == 200
        # File order is lsn order.
        lsns = [lsn for lsn, _ in journal.replay()]
        assert lsns == sorted(lsns)


class TestRotation:
    def test_rotation_by_size(self, tmp_path):
        journal = Journal(str(tmp_path / "j"), fsync="off",
                          segment_bytes=256)
        for i in range(20):
            journal.append("sess_open", key=f"key-{i:04d}")
        assert journal.rotations >= 1
        assert len(journal.segments()) >= 2
        # Replay spans all segments, in order.
        assert [r["key"] for r in records_of(journal)] \
            == [f"key-{i:04d}" for i in range(20)]

    def test_explicit_rotate_returns_high_water_mark(self, journal):
        journal.append("sess_open", key="a")
        mark = journal.rotate()
        assert mark == 1
        journal.append("sess_open", key="b")
        assert len(journal.segments()) == 2
        # Everything after the mark lives in the new segment.
        assert [r["key"] for r in records_of(journal, after=mark)] == ["b"]

    def test_truncate_sealed_keeps_active(self, journal):
        journal.append("sess_open", key="old")
        journal.rotate()
        journal.append("sess_open", key="new")
        removed = journal.truncate_sealed()
        assert removed == 1
        assert [r["key"] for r in records_of(journal)] == ["new"]


class TestTornTail:
    def corrupt(self, journal, data):
        journal.close()
        _, path = journal.segments()[-1]
        with open(path, "ab") as handle:
            handle.write(data)
        return path

    def test_short_header_truncated(self, journal):
        journal.append("sess_open", key="good")
        path = self.corrupt(journal, b"\x05")
        reopened = Journal(os.path.dirname(path), fsync="off")
        assert reopened.recovered_torn_tail
        assert [r["key"] for r in records_of(reopened)] == ["good"]

    def test_short_payload_truncated(self, journal):
        journal.append("sess_open", key="good")
        path = self.corrupt(journal,
                            struct.pack("<II", 100, 0) + b"short")
        reopened = Journal(os.path.dirname(path), fsync="off")
        assert reopened.recovered_torn_tail
        assert [r["key"] for r in records_of(reopened)] == ["good"]

    def test_bad_crc_truncated(self, journal):
        journal.append("sess_open", key="good")
        body = b'{"k":"sess_open","lsn":2}'
        frame = struct.pack("<II", len(body),
                            zlib.crc32(body) ^ 0xFFFF) + body
        path = self.corrupt(journal, frame)
        reopened = Journal(os.path.dirname(path), fsync="off")
        assert reopened.recovered_torn_tail
        assert [r["key"] for r in records_of(reopened)] == ["good"]

    def test_unparseable_json_truncated(self, journal):
        journal.append("sess_open", key="good")
        body = b"not json at all!!"
        frame = struct.pack("<II", len(body), zlib.crc32(body)) + body
        path = self.corrupt(journal, frame)
        reopened = Journal(os.path.dirname(path), fsync="off")
        assert reopened.recovered_torn_tail
        assert [r["key"] for r in records_of(reopened)] == ["good"]

    def test_append_continues_after_torn_tail(self, journal):
        journal.append("sess_open", key="a")
        path = self.corrupt(journal, b"\xff\xff\xff")
        reopened = Journal(os.path.dirname(path), fsync="off")
        assert reopened.append("sess_open", key="b") == 2
        assert [r["key"] for r in records_of(reopened)] == ["a", "b"]

    def test_mid_record_kill_simulated_by_tear_tail(self, journal):
        from repro.serve.chaos import tear_tail
        journal.append("sess_open", key="a")
        journal.append("sess_open", key="b")
        journal.close()
        _, path = journal.segments()[-1]
        tear_tail(path, 3)            # last record loses its tail
        reopened = Journal(os.path.dirname(path), fsync="off")
        assert reopened.recovered_torn_tail
        assert [r["key"] for r in records_of(reopened)] == ["a"]

    def test_empty_journal_is_fine(self, tmp_path):
        journal = Journal(str(tmp_path / "j"), fsync="off")
        assert journal.lsn == 0
        assert records_of(journal) == []
        assert not journal.recovered_torn_tail


class TestFsyncBehavior:
    def test_always_syncs_every_append(self, tmp_path):
        journal = Journal(str(tmp_path / "j"), fsync="always")
        for _ in range(3):
            journal.append("sess_open", key="k")
        assert journal.fsyncs >= 3

    def test_off_never_syncs_on_append(self, tmp_path):
        journal = Journal(str(tmp_path / "j"), fsync="off")
        for _ in range(10):
            journal.append("sess_open", key="k")
        assert journal.fsyncs == 0

    def test_interval_syncs_sparsely(self, tmp_path):
        journal = Journal(str(tmp_path / "j"), fsync="interval:3600")
        for _ in range(10):
            journal.append("sess_open", key="k")
        # One sync at most (the first append, last_sync == 0.0).
        assert journal.fsyncs <= 1

    def test_sync_hook_runs_between_write_and_fsync(self, tmp_path):
        calls = []
        journal = Journal(str(tmp_path / "j"), fsync="off",
                          sync_hook=lambda: calls.append(1))
        journal.append("sess_open", key="k")
        assert calls == [1]


class TestPoison:
    def test_poisoned_appends_are_noops(self, journal):
        journal.append("sess_open", key="a")
        journal.poison()
        assert journal.append("sess_open", key="b") == 0
        reopened = Journal(journal.directory, fsync="off")
        assert [r["key"] for r in records_of(reopened)] == ["a"]

    def test_close_after_poison_is_safe(self, journal):
        journal.poison()
        journal.close()          # must not raise


class TestStateStore:
    def test_checkpoint_round_trip(self, tmp_path):
        store = StateStore(str(tmp_path / "state"), fsync="off")
        payload = {"lsn": 7, "snapshot": b"blob", "sessions": [1, 2]}
        store.write_checkpoint(7, payload)
        assert store.load_checkpoint() == (7, payload)

    def test_newer_checkpoint_replaces_older(self, tmp_path):
        store = StateStore(str(tmp_path / "state"), fsync="off")
        store.write_checkpoint(3, {"lsn": 3})
        store.write_checkpoint(9, {"lsn": 9})
        assert store.load_checkpoint() == (9, {"lsn": 9})
        # The superseded file was pruned.
        assert len(store.checkpoint_files()) == 1

    def test_corrupt_checkpoint_falls_back(self, tmp_path):
        store = StateStore(str(tmp_path / "state"), fsync="off")
        store.write_checkpoint(3, {"lsn": 3})
        path = os.path.join(store.checkpoint_dir, "ckpt-000000000009.snap")
        with open(path, "wb") as handle:
            handle.write(CHECKPOINT_MAGIC + b"garbage garbage")
        assert store.load_checkpoint() == (3, {"lsn": 3})

    def test_missing_magic_skipped(self, tmp_path):
        store = StateStore(str(tmp_path / "state"), fsync="off")
        path = os.path.join(store.checkpoint_dir, "ckpt-000000000001.snap")
        with open(path, "wb") as handle:
            handle.write(b"who knows")
        assert store.load_checkpoint() is None

    def test_no_checkpoint_is_none(self, tmp_path):
        store = StateStore(str(tmp_path / "state"), fsync="off")
        assert store.load_checkpoint() is None

    def test_format_1_checkpoint_refused_not_skipped(self, tmp_path):
        store = StateStore(str(tmp_path / "state"), fsync="off")
        path = os.path.join(store.checkpoint_dir, "ckpt-000000000004.snap")
        with open(path, "wb") as handle:
            handle.write(b"DUELCKPT1\n" + b"\0" * 16)
        with pytest.raises(JournalError, match="format 1"):
            store.load_checkpoint()

    def test_unusable_dir_raises_journal_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("i am a file")
        with pytest.raises(JournalError):
            StateStore(str(blocker / "nested"), fsync="off")


class TestFoldSessions:
    def fold(self, *records, state=None):
        numbered = list(enumerate(records, start=1))
        return fold_sessions(state if state is not None else {},
                             numbered)

    def test_open_limit_alias_idem(self):
        state, writes = self.fold(
            {"k": "sess_open", "key": "A", "client": "c1",
             "limits": {"steps": 100}},
            {"k": "sess_limit", "key": "A", "name": "deadline_ms",
             "value": 50},
            {"k": "sess_alias", "key": "A", "aliases": pack({"t": 1})},
            {"k": "idem", "key": "A", "token": "tok",
             "result": {"outcome": {"ev": "done"}}},
        )
        assert writes == []
        entry = state["A"]
        assert entry["client_id"] == "c1"
        assert entry["limits"] == {"steps": 100, "deadline_ms": 50}
        assert entry["aliases"] == {"t": 1}
        assert entry["idem"]["tok"]["outcome"]["ev"] == "done"

    def test_later_binding_wins(self):
        state, _ = self.fold(
            {"k": "sess_open", "key": "A", "client": "c1"},
            {"k": "sess_alias", "key": "A", "aliases": pack({"t": 1})},
            {"k": "write", "key": "A", "text": "label", "delta": "",
             "aliases": pack({"t": 2, "u": 3})},
        )
        assert state["A"]["aliases"] == {"t": 2, "u": 3}

    def test_close_drops_the_session(self):
        state, _ = self.fold(
            {"k": "sess_open", "key": "A", "client": "c1"},
            {"k": "sess_close", "key": "A"},
            {"k": "sess_alias", "key": "A", "aliases": pack({"t": 1})},
        )
        assert state == {}

    def test_writes_kept_in_order(self):
        _, writes = self.fold(
            {"k": "sess_open", "key": "A", "client": "c1"},
            {"k": "write", "key": "A", "text": "x[0] = 1", "delta": "d1"},
            {"k": "sess_close", "key": "A"},
            {"k": "write", "key": "A", "text": "x[0] = 2", "delta": "d2"},
        )
        # A closed session's writes are target state: they still apply.
        assert [w["delta"] for w in writes] == ["d1", "d2"]

    def test_idempotent_double_application(self):
        records = [
            {"k": "sess_open", "key": "A", "client": "c1",
             "limits": {"steps": 9}},
            {"k": "sess_alias", "key": "A", "aliases": pack({"t": 1})},
            {"k": "idem", "key": "A", "token": "tok", "result": {}},
        ]
        state, _ = self.fold(*records)
        # The same records applied again (checkpoint double coverage)
        # leave identical state.
        again, _ = fold_sessions(state, list(enumerate(records, 1)))
        assert again["A"]["aliases"] == {"t": 1}
        assert again["A"]["limits"] == {"steps": 9}

    def test_records_for_unknown_sessions_ignored(self):
        state, writes = self.fold(
            {"k": "sess_limit", "key": "ghost", "name": "steps",
             "value": 1},
            {"k": "sess_alias", "key": "ghost", "aliases": pack({"t": 1})},
            {"k": "idem", "key": "ghost", "token": "t", "result": {}},
            {"k": "sess_close", "key": "ghost"},
        )
        assert state == {}
        assert writes == []

    def test_resume_updates_client_id(self):
        state, _ = self.fold(
            {"k": "sess_open", "key": "A", "client": "c1"},
            {"k": "sess_resume", "key": "A", "client": "c2"},
        )
        assert state["A"]["client_id"] == "c2"

    @pytest.mark.parametrize("record", [
        {"k": "write", "key": "A", "text": "x[0] = 1", "outcome": "done"},
        {"k": "sess_alias", "key": "A", "text": "t := x[0]"}])
    def test_format_1_records_refused(self, record):
        with pytest.raises(JournalError, match=r"lsn 2 .*format 1"):
            self.fold({"k": "sess_open", "key": "A", "client": "c1"},
                      record)
