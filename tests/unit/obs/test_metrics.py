"""Metrics registry: primitives, aggregation, session integration."""

import io
import json

import pytest

from repro import DuelSession, SimulatorBackend, TargetProgram
from repro.obs.metrics import (DEFAULT_MS_BUCKETS, Counter, Gauge,
                               Histogram, MetricsRegistry, registry)
from repro.target import builder


class TestPrimitives:
    def test_counter(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_gauge(self):
        g = Gauge()
        g.set(2.5)
        g.set(1.0)
        assert g.value == 1.0

    def test_histogram_buckets_must_be_sorted(self):
        with pytest.raises(ValueError):
            Histogram([2.0, 1.0])

    def test_histogram_counts_and_overflow(self):
        h = Histogram([1.0, 10.0])
        for value in (0.5, 0.7, 5.0, 100.0):
            h.observe(value)
        assert h.counts == [2, 1]
        assert h.overflow == 1
        assert h.count == 4
        assert h.minimum == 0.5 and h.maximum == 100.0
        assert h.mean == pytest.approx(106.2 / 4)

    def test_histogram_quantiles_interpolate(self):
        h = Histogram([10.0, 20.0])
        for _ in range(10):
            h.observe(5.0)            # all in the first bucket
        assert 0.0 < h.quantile(0.5) <= 10.0
        assert h.quantile(1.0) == 10.0
        assert Histogram().quantile(0.5) == 0.0   # empty

    def test_histogram_as_dict_elides_empty_buckets(self):
        h = Histogram(DEFAULT_MS_BUCKETS)
        h.observe(0.3)
        record = h.as_dict()
        assert record["count"] == 1
        assert record["buckets"] == [[0.5, 1]]
        assert "p50" in record and "p95" in record


class TestHistogramEdges:
    """Boundary behaviour the exposition layer depends on."""

    def test_quantile_of_empty_histogram_is_zero(self):
        h = Histogram()
        for q in (0.01, 0.5, 0.95, 1.0):
            assert h.quantile(q) == 0.0
        assert h.mean == 0.0
        assert h.minimum is None and h.maximum is None

    def test_observation_exactly_on_bound_is_inclusive(self):
        """Bounds are *inclusive* upper bounds (Prometheus ``le``
        semantics): a value equal to a bound lands in that bucket,
        never the next one."""
        h = Histogram([1.0, 10.0, 100.0])
        for value in (1.0, 10.0, 100.0):
            h.observe(value)
        assert h.counts == [1, 1, 1]
        assert h.overflow == 0
        # Strictly above the last bound overflows.
        h.observe(100.0000001)
        assert h.overflow == 1

    def test_snapshot_json_round_trip_preserves_histogram(self):
        m = MetricsRegistry()
        h = m.histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 1.0, 3.0, 99.0):
            h.observe(value)
        snap = json.loads(json.dumps(m.snapshot()))
        record = snap["histograms"]["h"]
        assert record["count"] == 4
        assert record["sum"] == pytest.approx(103.5)
        assert record["min"] == 0.5 and record["max"] == 99.0
        assert record["buckets"] == [[1.0, 2], [10.0, 1]]
        assert record["overflow"] == 1


class TestRegistry:
    def test_create_on_first_use(self):
        m = MetricsRegistry()
        assert m.counter("a") is m.counter("a")
        assert m.gauge("g") is m.gauge("g")
        assert m.histogram("h") is m.histogram("h")

    def test_record_query_folds_governor_stats(self):
        m = MetricsRegistry()
        stats = {"steps": 100, "expand": 3, "lines": 10, "calls": 1,
                 "allocs": 0, "symnodes": 42, "wall_ms": 1.5}
        m.record_query(stats, traffic={"reads": 7, "writes": 2},
                       phases={"parse": 0.1, "eval": 1.2})
        m.record_query(stats)
        assert m.counter("queries_total").value == 2
        assert m.counter("governor_steps_total").value == 200
        assert m.counter("target_reads_total").value == 7
        assert m.histogram("query_wall_ms").count == 2
        assert m.histogram("phase_parse_ms").count == 1

    def test_record_query_after_reset_counts_afresh(self):
        m = MetricsRegistry()
        m.record_query({"steps": 5, "wall_ms": 1.0}, traffic={"reads": 2})
        m.reset()
        m.record_query({"steps": 3, "wall_ms": 2.0}, traffic={"reads": 1})
        snap = m.snapshot()
        assert snap["counters"]["queries_total"] == 1
        assert snap["counters"]["governor_steps_total"] == 3
        assert snap["counters"]["target_reads_total"] == 1
        assert snap["histograms"]["query_wall_ms"]["sum"] == 2.0

    def test_cache_rate(self):
        m = MetricsRegistry()
        assert m.cache_rate("string_cache") == 0.0
        m.counter("string_cache_hits").inc(3)
        m.counter("string_cache_misses").inc(1)
        assert m.cache_rate("string_cache") == pytest.approx(0.75)

    def test_snapshot_round_trips_through_json(self):
        m = MetricsRegistry()
        m.counter("a").inc(2)
        m.gauge("g").set(1.5)
        m.histogram("h").observe(3.0)
        snap = json.loads(m.to_json())
        assert snap["counters"]["a"] == 2
        assert snap["gauges"]["g"] == 1.5
        assert snap["histograms"]["h"]["count"] == 1

    def test_describe_lists_everything(self):
        m = MetricsRegistry()
        m.counter("queries_total").inc()
        m.histogram("query_wall_ms").observe(0.5)
        rows = m.describe()
        assert any("queries_total" in row for row in rows)
        assert any("query_wall_ms" in row for row in rows)

    def test_describe_is_globally_name_sorted(self):
        """``metrics`` output must be stable regardless of metric kind
        or creation order, so transcripts diff cleanly."""
        m = MetricsRegistry()
        m.histogram("zz_wall_ms").observe(1.0)     # created first ...
        m.counter("aa_total").inc()
        m.gauge("mm_limit").set(5)
        names = [row.split()[0] for row in m.describe()]
        assert names == ["aa_total", "mm_limit", "zz_wall_ms"]
        # And the ordering is insensitive to insertion order.
        other = MetricsRegistry()
        other.gauge("mm_limit").set(5)
        other.histogram("zz_wall_ms").observe(1.0)
        other.counter("aa_total").inc()
        assert [row.split()[0] for row in other.describe()] == names

    def test_iteration_views_are_sorted_copies(self):
        m = MetricsRegistry()
        m.counter("b").inc()
        m.counter("a").inc()
        view = m.counters()
        assert list(view) == ["a", "b"]
        view["c"] = Counter()                       # mutating the copy ...
        assert list(m.counters()) == ["a", "b"]     # ... changes nothing

    def test_reset(self):
        m = MetricsRegistry()
        m.counter("a").inc()
        m.reset()
        assert m.snapshot() == {"counters": {}, "gauges": {},
                                "histograms": {}}

    def test_process_registry_is_shared(self):
        assert registry() is registry()


def isolated_session():
    program = TargetProgram()
    builder.int_array(program, "x",
                      [3, -1, 7, 0, 12, -9, 2, 120, 5, -4])
    return DuelSession(SimulatorBackend(program),
                       metrics=MetricsRegistry())


class TestSessionIntegration:
    def test_queries_accumulate(self):
        session = isolated_session()
        session.duel("x[..10] >? 5", out=io.StringIO())
        session.duel("x[3]", out=io.StringIO())
        m = session.metrics
        assert m.counter("queries_total").value == 2
        assert m.counter("governor_steps_total").value > 0
        assert m.counter("target_reads_total").value > 0
        assert m.histogram("query_wall_ms").count == 2
        for phase in ("parse", "eval", "format"):
            assert m.histogram(f"phase_{phase}_ms").count == 2

    def test_string_cache_counters_flow_through(self):
        session = isolated_session()
        session.duel('"abc"', out=io.StringIO())
        session.duel('"abc"', out=io.StringIO())
        m = session.metrics
        assert m.counter("string_cache_misses").value >= 1
        assert m.counter("string_cache_hits").value >= 1
        assert 0.0 < m.cache_rate("string_cache") < 1.0

    def test_sessions_default_to_process_registry(self, program):
        session = DuelSession(SimulatorBackend(program))
        assert session.metrics is registry()
