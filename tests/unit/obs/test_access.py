"""Memory-access observatory: the tracer's access ring, profiles,
classification, the prefetch advisor's cache simulation, and the JSONL
export."""

import io
import json

import pytest

from repro import DuelSession, SimulatorBackend, TargetProgram
from repro.obs.access import (ADVISOR_CAPACITIES, ADVISOR_PAGE_SIZES,
                              PATTERNS, AccessLog, _merge_intervals,
                              advise, classify_pattern, compact_profile,
                              profile_records, render_report,
                              simulate_page_cache)
from repro.obs.trace import QueryTracer, Sampler
from repro.target import builder
from repro.target.interface import TracingBackend


def reads(addresses, size=4):
    """Synthetic read records at the given addresses."""
    return [("r", address, size, -1) for address in addresses]


def sequential(n, base=0, size=4):
    return reads(range(base, base + n * size, size), size=size)


# -- the tracer ring ----------------------------------------------------
#
# The access tracer is the engine tracer of an access-traced query: a
# QueryTracer built with ``access=True`` keeps the ring.

class TestAccessTracer:
    def test_records_accesses_in_order(self):
        tracer = QueryTracer(access=True)
        tracer.on_read(100, 4)
        tracer.on_write(200, 8)
        assert tracer.accesses() == [("r", 100, 4), ("w", 200, 8)]
        profile = tracer.access_profile()
        assert (profile["reads"], profile["writes"]) == (1, 1)
        assert profile["total_bytes"] == 12

    def test_ring_bounds_memory_and_counts_drops(self, monkeypatch):
        monkeypatch.setattr("repro.obs.trace.ACCESS_CAPACITY", 4)
        tracer = QueryTracer(access=True)
        for i in range(10):
            tracer.on_read(i * 4, 4)
        assert len(tracer.access_records()) == 4
        assert tracer.dropped == 6
        # The tail survives, the head is gone.
        assert tracer.accesses()[0] == ("r", 24, 4)
        assert tracer.access_profile()["dropped"] == 6

    def test_span_defaults_to_minus_one_without_engine_tracer(self):
        # No node is being pulled: the record names no span.
        tracer = QueryTracer(access=True)
        tracer.on_read(0, 4)
        assert tracer.access_records() == [("r", 0, 4, -1)]

    def test_untraced_access_keeps_no_ring(self):
        tracer = QueryTracer()
        tracer.on_read(0, 4)
        assert tracer.access_ring is None
        assert tracer.access_records() == []


class TestAccessTracingBackend:
    """The tracing hop is the observatory's one hook: it streams each
    read's and write's address and size to the attached tracer."""

    def backend(self, tracer=None):
        program = TargetProgram()
        builder.int_array(program, "x", [1, 2, 3])
        return TracingBackend(SimulatorBackend(program), tracer)

    def test_passes_reads_and_writes_through(self):
        backend = self.backend()
        inner = backend.inner
        address = inner.get_target_variable("x").address
        assert backend.get_target_bytes(address, 4) == \
            inner.get_target_bytes(address, 4)
        backend.put_target_bytes(address, b"\x2a\x00\x00\x00")
        assert inner.get_target_bytes(address, 4)[0] == 0x2A

    def test_streams_accesses_to_tracer(self):
        tracer = QueryTracer(access=True)
        backend = self.backend(tracer)
        address = backend.get_target_variable("x").address
        backend.get_target_bytes(address, 4)
        backend.put_target_bytes(address + 4, b"zz")
        assert tracer.accesses() == [("r", address, 4),
                                     ("w", address + 4, 2)]

    def test_no_tracer_means_no_recording(self):
        backend = self.backend()
        address = backend.get_target_variable("x").address
        backend.get_target_bytes(address, 4)
        assert backend.tracer is None

    def test_delegates_other_backend_methods(self):
        backend = self.backend()
        assert backend.get_target_variable("x") is not None
        assert backend.frames_count() == backend.inner.frames_count()


# -- interval arithmetic ------------------------------------------------

class TestMergeIntervals:
    def test_empty(self):
        assert _merge_intervals([]) == 0

    def test_disjoint(self):
        assert _merge_intervals([(0, 4), (8, 12)]) == 8

    def test_overlapping_counted_once(self):
        assert _merge_intervals([(0, 8), (4, 12)]) == 12

    def test_contained_and_duplicate(self):
        assert _merge_intervals([(0, 16), (4, 8), (0, 16)]) == 16

    def test_unsorted_input(self):
        assert _merge_intervals([(20, 24), (0, 4), (4, 8)]) == 12


# -- classification -----------------------------------------------------

class TestClassification:
    def classify(self, records):
        return profile_records(records)["pattern"]

    def test_sequential_scan(self):
        assert self.classify(sequential(64)) == "sequential"

    def test_sequential_survives_inplace_rereads(self):
        # The evaluator double-loads every cell: zero deltas must not
        # dilute the dominant stride (the BENCH P3 shape).
        records = []
        for address in range(0, 256, 4):
            records += [("r", address, 4, -1)] * 2
        profile = profile_records(records)
        assert profile["pattern"] == "sequential"
        assert profile["inplace_rereads"] == 64
        assert profile["dominant_share"] == 1.0

    def test_strided_scan(self):
        # One 4-byte field out of every 32-byte struct slot.
        assert self.classify(reads(range(0, 32 * 64, 32))) == "strided"

    def test_pointer_chase(self):
        # Irregular hops, every address touched exactly once.
        addresses, address = [], 0
        for i in range(64):
            addresses.append(address)
            address += 40 + (i * 7919) % 1000
        assert self.classify(reads(addresses)) == "pointer-chase"

    def test_random_with_revisits(self):
        addresses = [(i * 7919) % 32 * 64 for i in range(128)]
        profile = profile_records(reads(addresses))
        assert profile["pattern"] == "random"
        assert profile["revisit_ratio"] > 0.05

    def test_scalar_for_tiny_queries(self):
        assert self.classify(reads([0, 8, 64])) == "scalar"
        assert self.classify([]) == "scalar"

    def test_patterns_vocabulary_is_closed(self):
        for records in (sequential(32), reads(range(0, 2048, 32)), []):
            assert self.classify(records) in PATTERNS

    def test_classify_pattern_direct(self):
        from collections import Counter
        assert classify_pattern(Counter({4: 10}), 10, 4, 0.0) \
            == "sequential"
        assert classify_pattern(Counter({32: 10}), 10, 4, 0.0) \
            == "strided"
        assert classify_pattern(Counter({-4: 10}), 10, 4, 0.0) \
            == "strided"          # backwards scan is regular, not seq
        assert classify_pattern(Counter({4: 1}), 1, 4, 0.0) == "scalar"


class TestProfileRecords:
    def test_byte_accounting(self):
        records = sequential(10) + sequential(10)     # full re-read
        profile = profile_records(records)
        assert profile["reads"] == 20
        assert profile["total_bytes"] == 80
        assert profile["unique_bytes"] == 40
        assert profile["reread_ratio"] == 0.5

    def test_page_accounting(self):
        profile = profile_records(sequential(64), page_size=64)
        assert profile["unique_pages"] == 4
        assert profile["page_locality"] == 16.0
        assert profile["page_size"] == 64

    def test_page_size_validated(self):
        with pytest.raises(ValueError):
            profile_records([], page_size=0)

    def test_access_spanning_a_page_boundary(self):
        profile = profile_records([("r", 60, 8, -1)], page_size=64)
        assert profile["unique_pages"] == 2

    def test_top_spans_attribution(self):
        records = [("r", i * 4, 4, 7) for i in range(10)] + \
                  [("r", 1000, 4, 3)]
        profile = profile_records(records)
        assert profile["top_spans"][0] == [7, 10]

    def test_stride_histogram_is_bounded(self):
        addresses, address = [], 0
        for i in range(100):
            address += i + 1                  # all distinct strides
            addresses.append(address)
        profile = profile_records(reads(addresses))
        assert len(profile["stride_histogram"]) == 8

    def test_compact_profile_keys(self):
        compact = compact_profile(profile_records(sequential(32)))
        assert set(compact) == {"accesses", "unique_bytes",
                                "unique_pages", "page_size",
                                "reread_ratio", "pattern"}


# -- the prefetch advisor -----------------------------------------------

class TestPageCacheSimulation:
    def test_sequential_scan_hits_within_page(self):
        # 16 reads per 64B page: 1 miss + 15 hits each.
        result = simulate_page_cache(sequential(64), 64, 4)
        assert result["misses"] == 4
        assert result["hits"] == 60
        assert result["hit_rate"] == round(60 / 64, 4)
        assert result["fetched_bytes"] == 4 * 64

    def test_lru_eviction(self):
        # Cycle over 3 pages with capacity 2: every touch misses.
        records = reads([0, 64, 128] * 4, size=4)
        result = simulate_page_cache(records, 64, 2)
        assert result["hits"] == 0
        assert result["misses"] == 12

    def test_capacity_large_enough_caches_the_working_set(self):
        records = reads([0, 64, 128] * 4, size=4)
        result = simulate_page_cache(records, 64, 3)
        assert result["misses"] == 3
        assert result["hits"] == 9

    def test_empty_trace(self):
        result = simulate_page_cache([], 64, 4)
        assert result["hit_rate"] == 0.0

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            simulate_page_cache([], 0, 4)
        with pytest.raises(ValueError):
            simulate_page_cache([], 64, 0)


class TestAdvise:
    def test_sweeps_the_full_grid(self):
        advice = advise(sequential(256))
        assert len(advice) == \
            len(ADVISOR_PAGE_SIZES) * len(ADVISOR_CAPACITIES)
        seen = {(entry["page_size"], entry["capacity"])
                for entry in advice}
        assert (64, 4) in seen and (4096, 32) in seen

    def test_best_projection_first(self):
        advice = advise(sequential(256))
        rates = [entry["hit_rate"] for entry in advice]
        assert rates == sorted(rates, reverse=True)

    def test_ties_break_to_smaller_footprint(self):
        # A tiny trace every configuration serves equally well.
        advice = advise(reads([0, 0, 0, 0]))
        best = advice[0]
        assert best["page_size"] * best["capacity"] == \
            min(e["page_size"] * e["capacity"] for e in advice)


class TestRenderReport:
    def test_report_lines(self):
        records = sequential(64)
        lines = render_report("x[..64] !=? 0", profile_records(records),
                              advise(records))
        text = "\n".join(lines)
        assert "accesses: x[..64] !=? 0" in text
        assert "pattern: sequential" in text
        assert "dominant stride +4" in text
        assert "prefetch advisor" in text
        assert "projected best:" in text

    def test_dropped_records_flagged(self):
        profile = profile_records(sequential(8))
        profile["dropped"] = 5
        lines = render_report("q", profile, [])
        assert any("dropped 5" in line for line in lines)

    def test_empty_profile_renders(self):
        lines = render_report("q", profile_records([]), [])
        assert "pattern: scalar" in "\n".join(lines)


# -- the JSONL export ---------------------------------------------------

class TestAccessLog:
    def test_export_writes_jsonl(self):
        buffer = io.StringIO()
        log = AccessLog(buffer)
        log.export({"ev": "access", "text": "x[0]"})
        log.export({"ev": "access", "text": "x[1]"})
        log.close()
        lines = buffer.getvalue().splitlines()
        assert [json.loads(line)["text"] for line in lines] == \
            ["x[0]", "x[1]"]
        assert log.exported == 2

    def exported_texts(self, sampler):
        buffer = io.StringIO()
        session = array_session(16)
        session.accesslog = AccessLog(buffer)
        session.sampler = sampler
        for index in range(9):
            session.duel(f"x[{index}]", out=io.StringIO())
        return [json.loads(line)["text"]
                for line in buffer.getvalue().splitlines()]

    def test_head_sampling_is_counter_based(self):
        # The session's one coin decides which queries are profiled.
        assert self.exported_texts(Sampler(3)) == ["x[2]", "x[5]", "x[8]"]

    def test_sample_one_admits_everything(self):
        assert len(self.exported_texts(Sampler(1))) == 9
        assert len(self.exported_texts(None)) == 9

    def test_sample_validated(self):
        with pytest.raises(ValueError):
            Sampler(0)

    def test_owns_and_closes_path_streams(self, tmp_path):
        path = tmp_path / "acc.jsonl"
        log = AccessLog(path)
        log.export({"ev": "access"})
        log.close()
        assert log._file._stream.closed
        assert json.loads(path.read_text())["ev"] == "access"


# -- session wiring -----------------------------------------------------

def array_session(n=256, qlog=None, statements=None):
    program = TargetProgram()
    builder.int_array(program, "x", list(range(n)))
    session = DuelSession(SimulatorBackend(program))
    session.qlog = qlog
    if statements is not None:
        session.statements = statements
    return session


class TestSessionAccesses:
    def test_accesses_reports_a_classified_profile(self):
        session = array_session()
        result = session.accesses("x[..256] !=? 0")
        assert result["outcome"] == "done"
        profile = result["access"]
        assert profile["pattern"] == "sequential"
        assert profile["reads"] >= 256
        assert profile["unique_pages"] >= 16
        assert result["fingerprint"]

    def test_accesses_carries_the_advisor_sweep(self):
        session = array_session()
        result = session.accesses("x[..256] !=? 0")
        advice = result["advisor"]
        assert len({entry["page_size"] for entry in advice}) >= 2
        assert advice[0]["hit_rate"] >= advice[-1]["hit_rate"]

    def test_accesses_on_compile_error(self):
        session = array_session()
        result = session.accesses("x[")
        assert result["outcome"] == "error"
        assert "access" not in result

    def test_untraced_queries_pay_no_tracer(self):
        session = array_session()
        session.duel("x[..8]", out=io.StringIO())
        assert session.last_query.access is None
        assert session.evaluator.backend.tracer is None

    def test_accesslog_sampling_drives_export(self):
        buffer = io.StringIO()
        session = array_session()
        session.accesslog = AccessLog(buffer)
        session.sampler = Sampler(2)
        out = io.StringIO()
        session.duel("x[..4]", out=out)       # coin 1: skipped
        session.duel("x[..4]", out=out)       # coin 2: profiled
        records = [json.loads(line)
                   for line in buffer.getvalue().splitlines()]
        assert len(records) == 1
        assert records[0]["ev"] == "access"
        assert records[0]["profile"]["reads"] > 0
        assert records[0]["outcome"] == "drained"

    def test_qlog_terminal_record_carries_compact_profile(self):
        from repro.obs.qlog import QueryLog
        qbuf = io.StringIO()
        session = array_session(qlog=QueryLog(qbuf, clock=lambda: 0.0))
        session.accesses("x[..16]")
        terminal = [json.loads(line)
                    for line in qbuf.getvalue().splitlines()][-1]
        assert terminal["ev"] == "drained"
        assert terminal["access"]["pattern"] == "sequential"
        assert set(terminal["access"]) == {"accesses", "unique_bytes",
                                           "unique_pages", "page_size",
                                           "reread_ratio", "pattern"}

    def test_statements_aggregate_profiles_per_fingerprint(self):
        from repro.obs.statements import StatementStats
        stats = StatementStats()
        session = array_session(statements=stats)
        session.accesses("x[..256] !=? 0")
        session.accesses("x[..256] !=? 0")
        (row,) = stats.snapshot()
        assert row["profiles"] == 2
        assert row["pattern"] == "sequential"
        assert row["page_locality"] > 1
        assert row["reads_per_value"] > 0
