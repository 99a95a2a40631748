"""Unit tests for session multiplexing and snapshot isolation."""

import threading
import time

import pytest

from repro.bench import workloads
from repro.serve.sessions import ReadWriteLock, SessionManager


@pytest.fixture
def program():
    return workloads.big_array(50)


@pytest.fixture
def manager(program):
    return SessionManager(program)


def drain(manager, client, text):
    """Run one query to completion; returns (outcome, lines, info)."""
    lines = []
    for kind, payload in manager.run(client, text):
        if kind == "value":
            lines.append(payload)
        else:
            return kind, lines, payload
    raise AssertionError("no terminal event")


class TestReadWriteLock:
    def test_readers_share(self):
        lock = ReadWriteLock()
        assert lock.acquire_read()
        assert lock.acquire_read()
        lock.release_read()
        lock.release_read()

    def test_writer_excludes_readers(self):
        lock = ReadWriteLock()
        assert lock.acquire_write()
        assert not lock.acquire_read(timeout=0.05)
        lock.release_write()
        assert lock.acquire_read()
        lock.release_read()

    def test_writer_waits_for_readers(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        assert not lock.acquire_write(timeout=0.05)
        lock.release_read()
        assert lock.acquire_write()
        lock.release_write()

    def test_pending_writer_blocks_new_readers(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        got_write = threading.Event()

        def writer():
            lock.acquire_write()
            got_write.set()
            lock.release_write()

        thread = threading.Thread(target=writer)
        thread.start()
        time.sleep(0.05)  # let the writer start waiting
        # Writer preference: a new reader must not jump the queue.
        assert not lock.acquire_read(timeout=0.05)
        lock.release_read()
        thread.join(timeout=2)
        assert got_write.is_set()
        assert lock.acquire_read()
        lock.release_read()

    def test_many_readers_one_writer_no_overlap(self):
        lock = ReadWriteLock()
        state = {"readers": 0, "writers": 0}
        overlaps = []
        mutex = threading.Lock()

        def reader():
            for _ in range(100):
                lock.acquire_read()
                with mutex:
                    state["readers"] += 1
                    if state["writers"]:
                        overlaps.append("r-during-w")
                with mutex:
                    state["readers"] -= 1
                lock.release_read()

        def writer():
            for _ in range(50):
                lock.acquire_write()
                with mutex:
                    state["writers"] += 1
                    if state["readers"] or state["writers"] > 1:
                        overlaps.append("w-overlap")
                with mutex:
                    state["writers"] -= 1
                lock.release_write()

        threads = [threading.Thread(target=reader) for _ in range(3)]
        threads += [threading.Thread(target=writer) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert overlaps == []


class TestSessionLifecycle:
    def test_open_is_idempotent(self, manager):
        a1 = manager.open("a#1")
        a2 = manager.open("a#1")
        assert a1 is a2
        assert manager.count() == 1

    def test_sessions_are_private_per_client(self, manager):
        a = manager.open("a#1")
        b = manager.open("b#2")
        assert a.session is not b.session
        assert a.session.evaluator.backend is not b.session.evaluator.backend

    def test_close_drops_the_session(self, manager):
        manager.open("a#1")
        manager.close("a#1")
        assert manager.get("a#1") is None
        assert manager.count() == 0

    def test_shared_observability_is_attached(self, program):
        from repro.obs.metrics import MetricsRegistry
        metrics = MetricsRegistry()
        manager = SessionManager(program, metrics=metrics)
        client = manager.open("a#1")
        drain(manager, client, "x[..5]")
        assert metrics.counter("queries_total").value == 1


class TestClassify:
    def test_reads_are_not_writes(self, manager):
        client = manager.open("a#1")
        assert manager.classify(client, "x[..10] >? 0") is False

    def test_assignment_is_a_write(self, manager):
        client = manager.open("a#1")
        assert manager.classify(client, "x[0] = 5") is True

    def test_incdec_is_a_write(self, manager):
        client = manager.open("a#1")
        assert manager.classify(client, "x[0]++") is True

    def test_alias_definition_is_not_a_write(self, manager):
        client = manager.open("a#1")
        assert manager.classify(client, "y := x[0]") is False

    def test_unparsable_text_is_read_only(self, manager):
        client = manager.open("a#1")
        assert manager.classify(client, ")))") is False

    def test_string_literal_is_a_write(self, manager):
        client = manager.open("a#1")
        assert manager.classify(client, '"abc"') is True


class TestSnapshotIsolation:
    def test_write_sees_its_own_effect(self, manager):
        client = manager.open("a#1")
        outcome, lines, _ = drain(manager, client, "x[0] = 4242")
        assert outcome == "done"
        assert any("4242" in line for line in lines)

    def test_write_does_not_persist(self, manager):
        a = manager.open("a#1")
        before = drain(manager, a, "x[0]")[1]
        drain(manager, a, "x[0] = 4242")
        after = drain(manager, a, "x[0]")[1]
        assert after == before

    def test_write_is_invisible_to_other_clients(self, manager):
        a = manager.open("a#1")
        b = manager.open("b#2")
        baseline = drain(manager, b, "x[..10]")[1]
        drain(manager, a, "x[..10] = 0")
        assert drain(manager, b, "x[..10]")[1] == baseline

    def test_string_literal_allocation_rolls_back(self, manager,
                                                  program):
        a = manager.open("a#1")
        assert program.heap.bytes_allocated == 0
        outcome, lines, _ = drain(manager, a, '"abc"')
        assert outcome == "done"
        assert lines
        assert program.heap.bytes_allocated == 0

    def test_faulted_write_still_restores(self, manager):
        a = manager.open("a#1")
        baseline = drain(manager, a, "x[..10]")[1]
        # Write then fault (null dereference) in the same drive.
        outcome, _, info = drain(manager, a, "(x[0] = 77, *(int*)0)")
        assert outcome == "faulted"
        assert drain(manager, a, "x[..10]")[1] == baseline

    def test_aliases_are_per_client(self, manager):
        a = manager.open("a#1")
        b = manager.open("b#2")
        drain(manager, a, "secret := 42")
        outcome, _, info = drain(manager, b, "secret")
        assert outcome == "faulted"
        assert "secret" in info["error"]
        outcome, lines, _ = drain(manager, a, "secret")
        assert outcome == "done"
        assert any("42" in line for line in lines)

    def test_abandoned_write_generator_restores(self, manager):
        a = manager.open("a#1")
        baseline = drain(manager, a, "x[0]")[1]
        events = manager.run(a, "x[..50] = 1")
        next(events)          # pull one value, then walk away
        events.close()        # finally-block must restore + release
        assert drain(manager, a, "x[0]")[1] == baseline
        # And the write lock must have been released.
        b = manager.open("b#2")
        assert drain(manager, b, "x[0]")[1] == baseline

    def test_concurrent_readers_share_the_target(self, manager):
        clients = [manager.open(f"c#{i}") for i in range(4)]
        results = [None] * 4

        def read(i):
            results[i] = drain(manager, clients[i], "x[..20] >? 0")

        threads = [threading.Thread(target=read, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        first = results[0]
        assert first is not None and first[0] == "done"
        # Outcome and lines identical (stats carry per-run timings).
        assert all(r[0] == "done" and r[1] == first[1] for r in results)
