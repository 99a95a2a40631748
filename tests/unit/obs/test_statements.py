"""Statement-statistics table: aggregation, bounds, exposition."""

import threading

import pytest

from repro.obs.statements import (ORDERINGS, PHASES, StatementStats,
                                  describe)


def record_n(stats, fingerprint, n, text=None, **kwargs):
    for _ in range(n):
        stats.record(fingerprint, text or fingerprint, outcome="done",
                     **kwargs)


class TestAggregation:
    def test_calls_accumulate_per_fingerprint(self):
        stats = StatementStats()
        record_n(stats, "aa", 3)
        record_n(stats, "bb", 1)
        rows = {r["fingerprint"]: r for r in stats.snapshot(by="calls")}
        assert rows["aa"]["calls"] == 3
        assert rows["bb"]["calls"] == 1
        assert stats.recorded == 4

    def test_values_reads_writes_accumulate(self):
        stats = StatementStats()
        stats.record("aa", "x[..?]", outcome="done", values=10,
                     stats={"reads": 7, "writes": 2})
        stats.record("aa", "x[..?]", outcome="done", values=5,
                     stats={"reads": 3})
        (row,) = stats.snapshot()
        assert row["values"] == 15
        assert row["reads"] == 10
        assert row["writes"] == 2

    def test_outcome_counts(self):
        stats = StatementStats()
        stats.record("aa", "t", outcome="done")
        stats.record("aa", "t", outcome="truncated")
        stats.record("aa", "t", outcome="faulted")
        (row,) = stats.snapshot()
        assert row["truncations"] == 1
        assert row["faults"] == 1
        assert row["calls"] == 3

    def test_wall_latency_prefers_explicit_over_stats(self):
        stats = StatementStats()
        stats.record("aa", "t", outcome="done",
                     stats={"wall_ms": 1.0}, wall_ms=50.0)
        (row,) = stats.snapshot()
        assert row["wall_ms"]["sum"] == pytest.approx(50.0)

    def test_phase_histograms(self):
        stats = StatementStats()
        stats.record("aa", "t", outcome="done",
                     phases={"parse": 1.0, "eval": 2.0,
                             "bogus_phase": 99.0})
        (row,) = stats.snapshot()
        assert set(row["phases"]) == {"parse", "eval"}
        assert row["phases"]["eval"]["sum"] == pytest.approx(2.0)


class TestBounds:
    def test_capacity_is_enforced(self):
        stats = StatementStats(capacity=4)
        for index in range(10):
            record_n(stats, f"fp{index}", 1)
        assert len(stats) == 4
        assert stats.evicted == 6
        assert stats.recorded == 10

    def test_eviction_prefers_least_called(self):
        stats = StatementStats(capacity=2)
        record_n(stats, "hot", 5)
        record_n(stats, "warm", 2)
        record_n(stats, "new", 1)                 # evicts warm? no: warm
        kept = {r["fingerprint"] for r in stats.snapshot()}
        assert "hot" in kept
        assert "warm" not in kept

    def test_eviction_ties_break_least_recent(self):
        stats = StatementStats(capacity=2)
        record_n(stats, "old", 1)
        record_n(stats, "newer", 1)
        record_n(stats, "newest", 1)
        kept = {r["fingerprint"] for r in stats.snapshot()}
        assert kept == {"newer", "newest"}

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            StatementStats(capacity=0)

    def test_reset(self):
        stats = StatementStats(capacity=1)
        record_n(stats, "aa", 1)
        record_n(stats, "bb", 1)
        stats.reset()
        assert len(stats) == 0
        assert stats.evicted == 0
        assert stats.recorded == 0


class TestSnapshot:
    def test_orderings(self):
        stats = StatementStats()
        stats.record("many", "m", outcome="done", wall_ms=1.0)
        stats.record("many", "m", outcome="done", wall_ms=1.0)
        stats.record("many", "m", outcome="done", wall_ms=1.0)
        stats.record("slow", "s", outcome="done", wall_ms=100.0)
        by_calls = [r["fingerprint"] for r in stats.snapshot(by="calls")]
        by_total = [r["fingerprint"]
                    for r in stats.snapshot(by="total_ms")]
        by_max = [r["fingerprint"] for r in stats.snapshot(by="max_ms")]
        assert by_calls[0] == "many"
        assert by_total[0] == "slow"
        assert by_max[0] == "slow"

    def test_unknown_ordering_rejected(self):
        stats = StatementStats()
        with pytest.raises(ValueError):
            stats.snapshot(by="charm")

    def test_limit(self):
        stats = StatementStats()
        for index in range(6):
            record_n(stats, f"fp{index}", 1)
        assert len(stats.snapshot(limit=3)) == 3

    def test_state(self):
        stats = StatementStats(capacity=2)
        record_n(stats, "aa", 2)
        record_n(stats, "bb", 1)
        record_n(stats, "cc", 1)
        assert stats.state() == {"entries": 2, "capacity": 2,
                                 "evicted": 1, "recorded": 4}

    def test_orderings_constant_covers_snapshot_keys(self):
        stats = StatementStats()
        record_n(stats, "aa", 1)
        (row,) = stats.snapshot()
        for key in ORDERINGS:
            assert key in row


class TestPrometheus:
    def test_families_and_labels(self):
        stats = StatementStats()
        stats.record("abcd", 'x["quo\\te"]', outcome="done",
                     values=3, wall_ms=10.0)
        lines = stats.prometheus_lines()
        body = "\n".join(lines)
        assert '# TYPE duel_stmt_calls_total counter' in body
        assert 'fingerprint="abcd"' in body
        # The quote and backslash in the text label must be escaped.
        assert 'x[\\"quo\\\\te\\"]' in body
        assert "duel_stmt_table_entries 1" in body

    def test_cardinality_bound(self):
        stats = StatementStats()
        for index in range(40):
            stats.record(f"fp{index:03}", f"t{index}", outcome="done",
                         wall_ms=float(index))
        lines = stats.prometheus_lines(limit=5)
        calls = [ln for ln in lines
                 if ln.startswith("duel_stmt_calls_total{")]
        assert len(calls) == 5

    def test_concurrent_scrape_during_aggregation(self):
        """A scrape racing live recording renders consistent rows."""
        stats = StatementStats()
        stop = threading.Event()
        errors = []

        def pound():
            index = 0
            while not stop.is_set():
                stats.record(f"fp{index % 8}", "t", outcome="done",
                             wall_ms=1.0, phases={"eval": 1.0})
                index += 1

        def scrape():
            try:
                while not stop.is_set():
                    for line in stats.prometheus_lines():
                        assert "None" not in line
                    for row in stats.snapshot():
                        # calls and the latency count move together
                        # under the table lock; a torn row would show
                        # a count above calls.
                        assert row["wall_ms"]["count"] <= row["calls"]
            except Exception as error:  # pragma: no cover - fail path
                errors.append(error)

        writers = [threading.Thread(target=pound) for _ in range(3)]
        reader = threading.Thread(target=scrape)
        for thread in (*writers, reader):
            thread.start()
        import time
        time.sleep(0.3)
        stop.set()
        for thread in (*writers, reader):
            thread.join(timeout=10)
        assert not errors


class TestDescribe:
    def test_renders_header_state_and_rows(self):
        stats = StatementStats()
        stats.record("aa", "x[..?] >? ?", outcome="done", values=4,
                     wall_ms=2.0)
        lines = describe(stats.snapshot(), stats.state())
        assert lines[0].startswith("statements: 1 shapes")
        assert "calls" in lines[1]
        assert "x[..?] >? ?" in lines[2]

    def test_phases_vocabulary_is_closed(self):
        assert set(PHASES) == {"queue", "lock", "parse", "eval",
                               "format", "stream"}


def sample_profile(pattern="sequential", **overrides):
    profile = {"accesses": 128, "reads": 128, "writes": 0,
               "unique_bytes": 256, "unique_pages": 8,
               "page_size": 64, "reread_ratio": 0.5,
               "pattern": pattern}
    profile.update(overrides)
    return profile


class TestAccessAggregation:
    def test_record_access_aggregates_locality(self):
        stats = StatementStats()
        stats.record("aa", "x[..?]", outcome="done", values=2,
                     stats={"reads": 128})
        stats.record_access("aa", sample_profile(unique_pages=8))
        stats.record_access("aa", sample_profile(unique_pages=4,
                                                 reread_ratio=0.3))
        (row,) = stats.snapshot()
        assert row["profiles"] == 2
        assert row["pages_per_call"] == 6.0
        assert row["reread_ratio"] == 0.4
        assert row["page_locality"] > 0

    def test_dominant_pattern_by_vote(self):
        stats = StatementStats()
        stats.record("aa", "t", outcome="done")
        for pattern in ("random", "sequential", "sequential"):
            stats.record_access("aa", sample_profile(pattern))
        (row,) = stats.snapshot()
        assert row["pattern"] == "sequential"

    def test_unprofiled_rows_have_no_pattern(self):
        stats = StatementStats()
        stats.record("aa", "t", outcome="done")
        (row,) = stats.snapshot()
        assert row["profiles"] == 0
        assert "pattern" not in row

    def test_record_access_for_unknown_fingerprint_is_a_noop(self):
        stats = StatementStats()
        stats.record_access("zz", sample_profile())
        assert stats.snapshot() == []


class TestReadsOrderings:
    def test_orderings_include_target_traffic(self):
        assert "reads" in ORDERINGS
        assert "reads_per_value" in ORDERINGS

    def test_snapshot_orders_by_reads(self):
        stats = StatementStats()
        stats.record("aa", "light", outcome="done", values=1,
                     stats={"reads": 10})
        stats.record("bb", "heavy", outcome="done", values=1,
                     stats={"reads": 999})
        rows = stats.snapshot(by="reads")
        assert [r["fingerprint"] for r in rows] == ["bb", "aa"]

    def test_reads_per_value_ranks_wasteful_shapes_first(self):
        stats = StatementStats()
        stats.record("aa", "cheap", outcome="done", values=100,
                     stats={"reads": 100})          # 1 read/value
        stats.record("bb", "wasteful", outcome="done", values=2,
                     stats={"reads": 1234})         # 617 reads/value
        rows = stats.snapshot(by="reads_per_value")
        assert rows[0]["fingerprint"] == "bb"
        assert rows[0]["reads_per_value"] == 617.0

    def test_zero_value_shapes_rank_by_raw_reads(self):
        stats = StatementStats()
        stats.record("aa", "t", outcome="done", values=0,
                     stats={"reads": 50})
        (row,) = stats.snapshot(by="reads_per_value")
        assert row["reads_per_value"] == 50.0


class TestTargetPrometheus:
    def test_reads_per_value_exported_for_all_shapes(self):
        stats = StatementStats()
        stats.record("aa", "t", outcome="done", values=2,
                     stats={"reads": 10})
        lines = stats.prometheus_target_lines()
        assert any(line.startswith("duel_target_reads_per_value")
                   and " 5" in line for line in lines)
        assert "duel_target_profiles_total 0" in lines

    def test_locality_families_need_a_profiled_run(self):
        stats = StatementStats()
        stats.record("aa", "t", outcome="done")
        lines = "\n".join(stats.prometheus_target_lines())
        assert "duel_target_page_locality{" not in lines
        stats.record_access("aa", sample_profile())
        lines = "\n".join(stats.prometheus_target_lines())
        assert "duel_target_page_locality{" in lines
        assert 'pattern="sequential"} 1' in lines
        assert "duel_target_profiles_total 1" in lines

    def test_cardinality_is_bounded(self):
        stats = StatementStats()
        for i in range(40):
            stats.record(f"f{i:02d}", "t", outcome="done",
                         stats={"reads": i})
        lines = stats.prometheus_target_lines(limit=8)
        gauges = [line for line in lines
                  if line.startswith("duel_target_reads_per_value{")]
        assert len(gauges) == 8
