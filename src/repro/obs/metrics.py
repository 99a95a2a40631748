"""Process-level metrics: counters, gauges, fixed-bucket histograms.

The governor (PR 3) counts steps/calls/allocs per query and throws the
numbers away after the stats footer; this registry is where they
accumulate *across* queries, together with target-backend traffic,
cache hit rates, and parse/eval/format phase timings, so a long
debugging session (or a benchmark harness) can ask "where has the time
gone so far".  Everything is snapshot-able to a plain dict / JSON —
the shape ``benchmarks/emit_json.py`` records into ``BENCH_3.json``.

One shared process-level instance lives at :func:`registry`;
:class:`~repro.core.session.DuelSession` records into it by default
(pass ``metrics=MetricsRegistry()`` for an isolated one).
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from typing import Optional, Sequence

#: Default latency buckets, in milliseconds (upper bounds; the last
#: bucket is open-ended).
DEFAULT_MS_BUCKETS: tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0)


class Counter:
    """A monotonically increasing count (thread-safe).

    ``value += amount`` is three interleavable bytecodes under
    CPython, so concurrent sessions recording into one registry (the
    ``repro.serve`` front end multiplexes every client into the
    process registry) would drop increments without the lock.  The
    lock is only taken per *query*, never per value, so the hot path
    is untouched.  ``lock`` is the one its value changes under: its
    own by default, its registry's when a registry made it (see
    :meth:`MetricsRegistry.record_query`).
    """

    __slots__ = ("value", "_lock")

    def __init__(self, lock: Optional[threading.Lock] = None) -> None:
        self.value = 0
        self._lock = lock if lock is not None else threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """A value that goes up and down (last write wins, thread-safe)."""

    __slots__ = ("value", "_lock")

    def __init__(self, lock: Optional[threading.Lock] = None) -> None:
        self.value = 0.0
        self._lock = lock if lock is not None else threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value


class Histogram:
    """Fixed-bucket histogram with sum/count and quantile estimates.

    ``buckets`` are inclusive upper bounds; observations above the last
    bound land in an implicit overflow bucket.  :meth:`quantile`
    interpolates within the winning bucket — coarse, but stable and
    allocation-free, which is what a hot-path metric wants.

    Thread-safe: :meth:`observe` mutates seven fields that must stay
    mutually consistent (``sum``/``count``/bucket counts), and
    :meth:`as_dict` snapshots under the same lock (``lock``, as for
    :class:`Counter`) so an exposition scrape racing an observation
    never renders ``count`` and ``sum`` from different instants.
    """

    __slots__ = ("bounds", "counts", "overflow", "total", "count",
                 "minimum", "maximum", "_lock")

    def __init__(self, buckets: Sequence[float] = DEFAULT_MS_BUCKETS,
                 lock: Optional[threading.Lock] = None):
        self.bounds = tuple(float(b) for b in buckets)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram buckets must be sorted")
        self.counts = [0] * len(self.bounds)
        self.overflow = 0
        self.total = 0.0
        self.count = 0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self._lock = lock if lock is not None else threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._add(value)

    def _add(self, value: float) -> None:
        """:meth:`observe`, the caller holding the lock."""
        index = bisect_left(self.bounds, value)
        if index == len(self.bounds):
            self.overflow += 1
        else:
            self.counts[index] += 1
        self.total += value
        self.count += 1
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated q-quantile (0 < q <= 1) from the bucket counts."""
        return self._quantile(q, self.snapshot_state())

    def _quantile(self, q: float, state: tuple) -> float:
        counts, _, _, count, _, maximum = state
        if count == 0:
            return 0.0
        rank = q * count
        seen = 0.0
        lower = 0.0
        for bound, bucket in zip(self.bounds, counts):
            if bucket:
                if seen + bucket >= rank:
                    within = (rank - seen) / bucket
                    return lower + (bound - lower) * within
                seen += bucket
            lower = bound
        return maximum if maximum is not None else lower

    def snapshot_state(self) -> tuple:
        """A consistent ``(counts, overflow, total, count, min, max)``."""
        with self._lock:
            return (list(self.counts), self.overflow, self.total,
                    self.count, self.minimum, self.maximum)

    def as_dict(self) -> dict:
        state = self.snapshot_state()
        counts, overflow, total, count, minimum, maximum = state
        return {
            "count": count,
            "sum": total,
            "min": minimum,
            "max": maximum,
            "mean": total / count if count else 0.0,
            "p50": self._quantile(0.50, state),
            "p95": self._quantile(0.95, state),
            "buckets": [[bound, n] for bound, n
                        in zip(self.bounds, counts) if n],
            "overflow": overflow,
        }


#: What :meth:`MetricsRegistry.record_query` adds up: the stats keys
#: of ``governor_<key>_total``, the traffic keys of
#: ``target_<key>_total`` and the phases of ``phase_<name>_ms``.
_GOVERNOR_KEYS = ("steps", "expand", "lines", "calls", "allocs", "symnodes")
_TRAFFIC_KEYS = ("reads", "writes", "calls", "allocs")
_PHASES = ("parse", "eval", "format")


class MetricsRegistry:
    """Named counters, gauges and histograms, created on first use.

    Thread-safe: instrument creation is lock-guarded (two sessions
    racing ``counter("queries_total")`` get the *same* counter, never
    two), every instrument it creates changes its value under one
    shared lock, and the iteration views copy the maps under the
    creation lock — so an exposition scrape or a ``metrics`` command
    racing live queries always sees a coherent registry.  The
    ``repro.serve`` front end funnels every client session into one
    shared registry, which is why it needs the locks.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()
        #: The lock every instrument of this registry changes under.
        self._values = threading.Lock()
        # The instruments :meth:`record_query` adds to, resolved on
        # its first query (and again after :meth:`reset`).
        self._fold: Optional[tuple] = None

    # -- accessors ---------------------------------------------------------
    def counter(self, name: str) -> Counter:
        with self._lock:
            found = self._counters.get(name)
            if found is None:
                found = self._counters[name] = Counter(self._values)
            return found

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            found = self._gauges.get(name)
            if found is None:
                found = self._gauges[name] = Gauge(self._values)
            return found

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_MS_BUCKETS
                  ) -> Histogram:
        with self._lock:
            found = self._histograms.get(name)
            if found is None:
                found = self._histograms[name] = Histogram(buckets,
                                                           self._values)
            return found

    # -- iteration (exposition renderers) ----------------------------------
    def counters(self) -> dict[str, Counter]:
        """All counters, name-sorted (a copy; safe to iterate)."""
        with self._lock:
            return dict(sorted(self._counters.items()))

    def gauges(self) -> dict[str, Gauge]:
        """All gauges, name-sorted (a copy; safe to iterate)."""
        with self._lock:
            return dict(sorted(self._gauges.items()))

    def histograms(self) -> dict[str, Histogram]:
        """All histograms, name-sorted (a copy; safe to iterate)."""
        with self._lock:
            return dict(sorted(self._histograms.items()))

    # -- aggregation helpers ----------------------------------------------
    def record_query(self, stats: dict, traffic: Optional[dict] = None,
                     phases: Optional[dict] = None) -> None:
        """Fold one finished query into the process totals.

        ``stats`` is :meth:`ResourceGovernor.stats` output; ``traffic``
        carries per-query reads/writes/calls/allocs deltas from the
        :class:`~repro.target.interface.TracingBackend`; ``phases``
        maps phase name (parse/eval/format) to milliseconds; other keys
        are not counted.  The instruments are all created on the first
        call and resolved once per registry (again after
        :meth:`reset`), and a query changes them under one acquisition
        of their shared lock.
        """
        fold = self._fold
        if fold is None:
            counter, histogram = self.counter, self.histogram
            fold = self._fold = (
                counter("queries_total"),
                tuple((key, counter(f"governor_{key}_total"))
                      for key in _GOVERNOR_KEYS),
                histogram("query_wall_ms"),
                tuple((key, counter(f"target_{key}_total"))
                      for key in _TRAFFIC_KEYS),
                tuple((name, histogram(f"phase_{name}_ms"))
                      for name in _PHASES))
        queries, governor, wall, target, phase = fold
        with self._values:
            queries.value += 1
            for key, counter in governor:
                if key in stats:
                    counter.value += stats[key]
            if "wall_ms" in stats:
                wall._add(stats["wall_ms"])
            if traffic:
                for key, counter in target:
                    if key in traffic:
                        counter.value += traffic[key]
            if phases:
                for name, histogram in phase:
                    if name in phases:
                        histogram._add(phases[name])

    def observe(self, record) -> None:
        """Fold a finished query into the totals (a session sink;
        ``record`` is a :class:`~repro.core.session.QueryRecord`).
        Rejected queries never ran and are not counted."""
        if record.outcome == "rejected":
            return
        stats = record.stats
        # The stats carry the query's target traffic too.
        self.record_query(stats, stats, phases=record.phases)
        hits, misses = record.string_cache
        self.counter("string_cache_hits").inc(hits)
        self.counter("string_cache_misses").inc(misses)

    def cache_rate(self, name: str) -> float:
        """Hit rate of a ``<name>_hits`` / ``<name>_misses`` pair."""
        hits = self.counter(f"{name}_hits").value
        misses = self.counter(f"{name}_misses").value
        total = hits + misses
        return hits / total if total else 0.0

    # -- snapshots ---------------------------------------------------------
    def snapshot(self) -> dict:
        """The whole registry as one plain (JSON-able) dict."""
        return {
            "counters": {name: c.value
                         for name, c in self.counters().items()},
            "gauges": {name: g.value
                       for name, g in self.gauges().items()},
            "histograms": {name: h.as_dict()
                           for name, h in self.histograms().items()},
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    def describe(self) -> list[str]:
        """Human-readable lines (the REPL ``metrics`` command).

        One line per metric, sorted *globally* by name across all
        three kinds, so successive ``metrics`` outputs — and outputs
        from different runs of the same workload — diff cleanly.
        """
        rows: list[tuple[str, str]] = []
        for name, counter in self.counters().items():
            rows.append((name, f"{name:<28} {counter.value}"))
        for name, gauge in self.gauges().items():
            rows.append((name, f"{name:<28} {gauge.value:g}"))
        for name, hist in self.histograms().items():
            state = hist.snapshot_state()
            count, total = state[3], state[2]
            mean = total / count if count else 0.0
            rows.append((name, f"{name:<28} count={count} "
                         f"mean={mean:.3f} "
                         f"p50={hist._quantile(.5, state):.3f} "
                         f"p95={hist._quantile(.95, state):.3f}"))
        return [text for _, text in sorted(rows)]

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._fold = None


#: The shared process-level registry (sessions default to this).
_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-level registry instance."""
    return _REGISTRY
