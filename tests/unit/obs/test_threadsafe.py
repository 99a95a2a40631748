"""Hammer tests for the observability stack's thread-safety.

The ``repro.serve`` front end funnels every client session into one
shared MetricsRegistry, QueryLog, RingBufferSink and FlightRecorder.
These tests drive each from many threads at once and assert the
invariants the single-threaded code silently relied on: no lost
increments, no torn snapshots, no duplicated or out-of-order qids,
no interleaved half-records.

Hammer discipline: each test uses a barrier start (all threads
released together, maximizing interleaving) and asserts exact totals
— a race that drops even one update fails deterministically given
enough iterations, and these counts (4 threads x 2000+ ops) lose
updates reliably on unpatched code.
"""

import io
import json
import threading

from repro.obs.metrics import MetricsRegistry
from repro.obs.qlog import QueryLog
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import RingBufferSink, Sampler

THREADS = 4
ROUNDS = 2000


def hammer(worker, threads=THREADS):
    """Run ``worker(index)`` on N threads with a barrier start."""
    barrier = threading.Barrier(threads)
    errors = []

    def run(index):
        barrier.wait()
        try:
            worker(index)
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    pool = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    assert not errors, errors


class TestMetricsHammer:
    def test_counter_increments_are_not_lost(self):
        registry = MetricsRegistry()

        def worker(index):
            counter = registry.counter("hits")
            for _ in range(ROUNDS):
                counter.inc()

        hammer(worker)
        assert registry.counter("hits").value == THREADS * ROUNDS

    def test_get_or_create_race_yields_one_instrument(self):
        registry = MetricsRegistry()
        seen = []
        lock = threading.Lock()

        def worker(index):
            for _ in range(ROUNDS // 10):
                counter = registry.counter("shared")
                counter.inc()
                with lock:
                    seen.append(counter)

        hammer(worker)
        assert len({id(c) for c in seen}) == 1
        assert registry.counter("shared").value == THREADS * (ROUNDS // 10)

    def test_histogram_sum_and_count_stay_consistent(self):
        registry = MetricsRegistry()

        def worker(index):
            hist = registry.histogram("lat_ms")
            for i in range(ROUNDS):
                hist.observe(1.0)

        hammer(worker)
        hist = registry.histogram("lat_ms")
        counts, overflow, total, count, minimum, maximum = \
            hist.snapshot_state()
        assert count == THREADS * ROUNDS
        assert total == float(THREADS * ROUNDS)
        assert sum(counts) + overflow == count
        assert minimum == maximum == 1.0

    def test_snapshot_while_hammered_is_coherent(self):
        registry = MetricsRegistry()
        stop = threading.Event()

        def writer(index):
            hist = registry.histogram("h")
            for i in range(ROUNDS):
                hist.observe(2.0)
                registry.counter(f"c{i % 8}").inc()
            stop.set()

        snapshots = []

        def reader(index):
            while not stop.is_set():
                snapshots.append(registry.snapshot())

        hammer(lambda i: writer(i) if i else reader(i), threads=THREADS)
        for snap in snapshots:
            hist = snap["histograms"].get("h")
            if hist is None or hist["count"] == 0:
                continue
            # sum must track count exactly: every observation was 2.0.
            assert hist["sum"] == 2.0 * hist["count"]

    def test_record_query_from_many_threads(self):
        registry = MetricsRegistry()

        def worker(index):
            for _ in range(ROUNDS // 10):
                registry.record_query({"steps": 3, "wall_ms": 1.0},
                                      traffic={"reads": 2},
                                      phases={"eval": 0.5})

        hammer(worker)
        total = THREADS * (ROUNDS // 10)
        assert registry.counter("queries_total").value == total
        assert registry.counter("governor_steps_total").value == 3 * total
        assert registry.counter("target_reads_total").value == 2 * total
        assert registry.histogram("query_wall_ms").count == total

    def test_reset_race_does_not_corrupt(self):
        registry = MetricsRegistry()

        def worker(index):
            for _ in range(200):
                if index == 0:
                    registry.reset()
                else:
                    registry.counter("x").inc()
                    registry.describe()

        hammer(worker)
        # Registry still functional afterwards.
        registry.counter("x").inc()
        assert registry.counter("x").value >= 1


class TestRingBufferSinkHammer:
    def test_no_lost_events_below_capacity(self):
        sink = RingBufferSink(capacity=THREADS * ROUNDS + 1)

        def worker(index):
            for i in range(ROUNDS):
                sink.emit("pull", index)

        hammer(worker)
        assert len(sink.snapshot()) == THREADS * ROUNDS
        assert sink.dropped == 0

    def test_dropped_accounts_for_overflow_exactly(self):
        sink = RingBufferSink(capacity=64)

        def worker(index):
            for i in range(ROUNDS):
                sink.emit("yield", i)

        hammer(worker)
        total = THREADS * ROUNDS
        assert len(sink.snapshot()) == 64
        # Every emit beyond capacity displaced exactly one event.
        assert sink.dropped == total - 64

    def test_snapshot_during_emits_is_a_stable_copy(self):
        sink = RingBufferSink(capacity=128)
        stop = threading.Event()

        def worker(index):
            if index == 0:
                for i in range(ROUNDS):
                    sink.emit("pull", i)
                stop.set()
            else:
                while not stop.is_set():
                    snap = sink.snapshot()
                    assert len(snap) <= 128
                    # The copy must be iterable while emits continue
                    # (a live deque raises RuntimeError here).
                    for _ in snap:
                        pass

        hammer(worker)

    def test_clear_race_leaves_consistent_state(self):
        sink = RingBufferSink(capacity=32)

        def worker(index):
            for i in range(500):
                if index == 0 and i % 50 == 0:
                    sink.clear()
                else:
                    sink.emit("pull", i)

        hammer(worker)
        assert len(sink.snapshot()) <= 32


class TestQueryLogInterleaving:
    """Satellite regression: qids atomic and globally monotone."""

    def test_qids_unique_and_monotone_across_threads(self):
        stream = io.StringIO()
        qlog = QueryLog(stream, clock=lambda: 0.0)
        per_thread = 250
        allocated = [[] for _ in range(THREADS)]

        def worker(index):
            for i in range(per_thread):
                qid = qlog.begin(f"t{index}q{i}")
                allocated[index].append(qid)
                qlog.end(qid, "drained", values=1)

        hammer(worker)
        everything = [qid for chunk in allocated for qid in chunk]
        # No qid handed out twice, none skipped.
        assert sorted(everything) == list(
            range(1, THREADS * per_thread + 1))
        # Each thread saw its own allocations strictly increasing.
        for chunk in allocated:
            assert chunk == sorted(chunk)

    def test_received_records_appear_in_qid_order(self):
        stream = io.StringIO()
        qlog = QueryLog(stream, clock=lambda: 0.0)

        def worker(index):
            for i in range(250):
                qid = qlog.begin("x")
                qlog.end(qid, "drained")

        hammer(worker)
        received = [json.loads(line)["qid"]
                    for line in stream.getvalue().splitlines()
                    if json.loads(line)["ev"] == "received"]
        # Allocation and write are one atomic step, so the file's
        # received records are exactly 1..N in order.
        assert received == list(range(1, len(received) + 1))

    def test_every_line_is_whole_json(self):
        stream = io.StringIO()
        qlog = QueryLog(stream, clock=lambda: 0.0)

        def worker(index):
            for i in range(250):
                qid = qlog.begin("a" * 100)
                qlog.end(qid, "truncated", values=i, kind="steps",
                         stats={"steps": i, "wall_ms": 0.1})

        hammer(worker)
        lines = stream.getvalue().splitlines()
        assert len(lines) == qlog.records
        for line in lines:
            record = json.loads(line)  # raises if a write tore
            assert record["ev"] in ("received", "truncated")

    def test_terminal_record_count_matches(self):
        stream = io.StringIO()
        qlog = QueryLog(stream, clock=lambda: 0.0)

        def worker(index):
            for i in range(200):
                qid = qlog.begin("q")
                qlog.end(qid, "drained", values=1)

        hammer(worker)
        records = [json.loads(line)
                   for line in stream.getvalue().splitlines()]
        drained = [r for r in records if r["ev"] == "drained"]
        received = [r for r in records if r["ev"] == "received"]
        assert len(drained) == len(received) == THREADS * 200
        # Exactly one terminal per qid.
        assert len({r["qid"] for r in drained}) == len(drained)


class TestFlightRecorderHammer:
    def test_recorded_count_is_exact(self):
        recorder = FlightRecorder(capacity=16)

        def worker(index):
            for i in range(ROUNDS // 2):
                recorder.record({"text": f"t{index}", "values": i})

        hammer(worker)
        assert recorder.recorded == THREADS * (ROUNDS // 2)
        assert len(recorder.last()) == 16

    def test_dump_during_records_is_self_consistent(self, tmp_path):
        recorder = FlightRecorder(capacity=8, dump_dir=str(tmp_path),
                                  clock=lambda: 0.0)
        stop = threading.Event()
        paths = []

        def worker(index):
            if index == 0:
                for i in range(400):
                    recorder.record({"i": i})
                stop.set()
            else:
                while not stop.is_set():
                    paths.append(recorder.dump("hammer"))

        hammer(worker, threads=2)
        for path in paths:
            with open(path) as handle:
                artifact = json.load(handle)
            assert len(artifact["queries"]) <= 8
            assert artifact["queries_recorded"] >= len(artifact["queries"])


class TestSamplerHammer:
    def test_shared_coin_takes_exactly_one_in_n(self):
        """Every session of a server tosses one shared coin: a lost
        increment would take a query twice or skip one."""
        import sys
        sampler = Sampler(4)
        taken = [0] * THREADS

        def worker(index):
            for _ in range(ROUNDS):
                taken[index] += sampler.sample()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            hammer(worker)
        finally:
            sys.setswitchinterval(interval)
        assert sum(taken) == THREADS * ROUNDS // 4
