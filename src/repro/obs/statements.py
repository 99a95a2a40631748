"""Fleet-wide statement statistics, à la ``pg_stat_statements``.

A bounded, lock-safe aggregation table keyed by statement fingerprint
(:mod:`repro.obs.fingerprint`): per query *shape* — not per query text
— it accumulates calls, values produced, target reads/writes,
truncation/fault counts, and per-phase latency distributions
(parse/eval/format from the session, queue/lock/stream from the serve
layer) in the registry's fixed-bucket :class:`~repro.obs.metrics.
Histogram`, so every fingerprint can answer min/max/p50/p95 by phase.

Bounds: the table holds at most ``capacity`` fingerprints.  When a new
fingerprint arrives at capacity, the entry with the fewest calls is
evicted (ties broken by least recently recorded) and ``evicted``
counts it — a long-tail of one-off shapes can never grow the table
without bound, while the hot shapes a dashboard cares about are
exactly the ones eviction preserves.

Surfaced three ways: the ``statements`` REPL/protocol op
(:meth:`StatementStats.snapshot`), a labeled Prometheus family on
``/metrics`` (:meth:`StatementStats.prometheus_lines`), and the
``fingerprint`` field on qlog terminal records.  Everything is behind
the established ``is not None`` fast-path guard: a session without a
table attached pays one predicate per query.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.obs.exposition import escape_label_value, sanitize
from repro.obs.metrics import DEFAULT_MS_BUCKETS, Histogram

#: Phases every entry tracks.  Session phases come from the query's
#: :class:`~repro.core.session.QueryRecord`; serve phases from the
#: server's request span tree.  Unknown phase names are dropped,
#: keeping the per-entry memory bound exact.
PHASES = ("queue", "lock", "parse", "eval", "format", "stream")

#: Snapshot orderings the ``statements`` op accepts.  ``reads`` and
#: ``reads_per_value`` rank I/O-heavy shapes by the target reads they
#: issued (the memory observatory's view).  Keep
#: :data:`repro.serve.protocol.STATEMENT_ORDERINGS` in sync.
ORDERINGS = ("total_ms", "calls", "mean_ms", "max_ms", "reads",
             "reads_per_value")


class StatementEntry:
    """Aggregates for one statement fingerprint (lock held by table)."""

    __slots__ = ("fingerprint", "text", "calls", "values", "reads",
                 "writes", "truncations", "faults", "wall", "phases",
                 "seq", "profiles", "acc_accesses", "acc_pages",
                 "acc_reread", "patterns")

    def __init__(self, fingerprint: str, text: str):
        self.fingerprint = fingerprint
        self.text = text
        self.calls = 0
        self.values = 0
        self.reads = 0
        self.writes = 0
        self.truncations = 0
        self.faults = 0
        #: End-to-end latency (ms) distribution across calls.
        self.wall = Histogram(DEFAULT_MS_BUCKETS)
        #: Per-phase latency (ms) distributions, created on first use.
        self.phases: dict[str, Histogram] = {}
        #: Recency tiebreaker for eviction (table's record sequence).
        self.seq = 0
        #: Memory-access observatory aggregates: how many calls ran
        #: access-profiled, their cumulative accesses / unique pages /
        #: re-read ratios, and the scan-pattern vote counts (a closed
        #: vocabulary — :data:`repro.obs.access.PATTERNS` — so the
        #: per-entry memory bound stays exact).
        self.profiles = 0
        self.acc_accesses = 0
        self.acc_pages = 0
        self.acc_reread = 0.0
        self.patterns: dict[str, int] = {}

    def as_dict(self) -> dict:
        """One snapshot row (plain JSON-able dict)."""
        row = {
            "fingerprint": self.fingerprint,
            "text": self.text,
            "calls": self.calls,
            "values": self.values,
            "reads": self.reads,
            "writes": self.writes,
            "truncations": self.truncations,
            "faults": self.faults,
            "wall_ms": self.wall.as_dict(),
            "phases": {name: hist.as_dict()
                       for name, hist in sorted(self.phases.items())},
        }
        row["profiles"] = self.profiles
        if self.profiles:
            # Dominant pattern by vote (ties: alphabetical, stable).
            row["pattern"] = max(sorted(self.patterns),
                                 key=lambda p: self.patterns[p])
            row["page_locality"] = round(
                self.acc_accesses / self.acc_pages, 2) \
                if self.acc_pages else 0.0
            row["reread_ratio"] = round(
                self.acc_reread / self.profiles, 4)
            row["pages_per_call"] = round(
                self.acc_pages / self.profiles, 1)
        return row


class StatementStats:
    """The bounded, thread-safe fingerprint → aggregates table."""

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("statements capacity must be >= 1")
        self.capacity = capacity
        self._entries: dict[str, StatementEntry] = {}
        self._lock = threading.Lock()
        self._seq = 0
        #: Entries dropped to stay within ``capacity``.
        self.evicted = 0
        #: Total queries folded in (including into evicted entries).
        self.recorded = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- recording ---------------------------------------------------------
    def record(self, fingerprint: str, text: str, *, outcome: str,
               values: int = 0, stats: Optional[dict] = None,
               phases: Optional[dict] = None,
               wall_ms: Optional[float] = None) -> None:
        """Fold one finished query into its fingerprint's aggregates.

        ``stats`` is the session's per-query stats dict (reads/writes/
        wall_ms are used); ``phases`` maps phase name → milliseconds
        (session and serve phases mixed freely; unknown names are
        ignored).  ``wall_ms`` overrides ``stats["wall_ms"]`` when the
        caller measured a wider interval (the serve layer passes the
        admission-to-stream total).
        """
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                if len(self._entries) >= self.capacity:
                    self._evict_locked()
                entry = StatementEntry(fingerprint, text)
                self._entries[fingerprint] = entry
            self._seq += 1
            entry.seq = self._seq
            self.recorded += 1
            entry.calls += 1
            entry.values += values
            if stats:
                entry.reads += stats.get("reads", 0)
                entry.writes += stats.get("writes", 0)
            if outcome == "truncated":
                entry.truncations += 1
            elif outcome == "faulted":
                entry.faults += 1
            if wall_ms is None and stats:
                wall_ms = stats.get("wall_ms")
            if wall_ms is not None:
                entry.wall.observe(wall_ms)
            if phases:
                for name, ms in phases.items():
                    if name not in PHASES:
                        continue
                    hist = entry.phases.get(name)
                    if hist is None:
                        hist = entry.phases[name] = \
                            Histogram(DEFAULT_MS_BUCKETS)
                    hist.observe(ms)

    def observe(self, record, serve_phases: Optional[dict] = None) -> None:
        """Fold one finished query's record into its row (a session
        sink).  The serve layer calls it itself, adding the
        queue/lock/stream phases only it measures; a query that never
        compiled has no fingerprint and is skipped."""
        fp = record.fingerprint
        if fp is not None:
            self.record(fp.hash, fp.text, outcome=record.outcome,
                        values=record.values, stats=record.stats,
                        phases=record.phases if serve_phases is None
                        else {**serve_phases, **record.phases})
            self.record_access(fp.hash, record.access)

    def record_access(self, fingerprint: str,
                      profile: Optional[dict]) -> None:
        """Fold one query's access profile into an existing entry.

        No call bump — :meth:`record` already counted the query; this
        adds the memory observatory's view (reads-per-value surfaces
        from the existing ``reads``/``values`` columns; here land the
        page-locality and pattern aggregates only a profiled run can
        measure).  A fingerprint the table no longer holds is silently
        dropped.
        """
        if not profile:
            return
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                return
            entry.profiles += 1
            entry.acc_accesses += profile.get("accesses", 0)
            entry.acc_pages += profile.get("unique_pages", 0)
            entry.acc_reread += profile.get("reread_ratio", 0.0)
            pattern = profile.get("pattern")
            if pattern is not None:
                entry.patterns[pattern] = \
                    entry.patterns.get(pattern, 0) + 1

    def _evict_locked(self) -> None:
        """Drop the least-called (then least-recent) entry."""
        victim = min(self._entries.values(),
                     key=lambda e: (e.calls, e.seq))
        del self._entries[victim.fingerprint]
        self.evicted += 1

    # -- surfacing ---------------------------------------------------------
    def snapshot(self, by: str = "total_ms",
                 limit: Optional[int] = None) -> list[dict]:
        """Top entries as plain dicts, ordered by ``by`` descending.

        ``by`` is one of :data:`ORDERINGS`.  The rows are rendered
        under the table lock, so a snapshot racing live aggregation is
        internally consistent (no half-recorded query splits a row's
        ``calls`` from its latency count).
        """
        if by not in ORDERINGS:
            raise ValueError(f"unknown statements ordering {by!r} "
                             f"(expected one of {', '.join(ORDERINGS)})")
        with self._lock:
            rows = [entry.as_dict() for entry in self._entries.values()]
        for row in rows:
            wall = row["wall_ms"]
            row["total_ms"] = wall["sum"]
            row["mean_ms"] = wall["mean"]
            row["max_ms"] = wall["max"] if wall["max"] is not None else 0.0
            # A shape that produced nothing ranks by its raw reads —
            # 1234 reads for 0 values is the worst ratio there is.
            row["reads_per_value"] = round(row["reads"] / row["values"], 2) \
                if row["values"] else float(row["reads"])
        rows.sort(key=lambda r: (r[by], r["calls"], r["fingerprint"]),
                  reverse=True)
        if limit is not None:
            rows = rows[:limit]
        return rows

    def state(self) -> dict:
        """Table-level accounting (the ``statements`` op's header)."""
        with self._lock:
            return {"entries": len(self._entries),
                    "capacity": self.capacity,
                    "evicted": self.evicted,
                    "recorded": self.recorded}

    def reset(self) -> None:
        with self._lock:
            self._entries.clear()
            self.evicted = 0
            self.recorded = 0
            self._seq = 0

    # -- Prometheus --------------------------------------------------------
    def prometheus_lines(self, prefix: str = "duel_",
                         limit: int = 32) -> list[str]:
        """The labeled statement families for ``/metrics``.

        Exposes the top ``limit`` fingerprints by total latency —
        labeled cardinality must stay bounded even though the table
        holds more — as counters plus a summary-style latency family::

            duel_stmt_calls_total{fingerprint="...",text="..."} 42
            duel_stmt_latency_ms_sum{fingerprint="..."} 104.2
            duel_stmt_latency_ms_count{fingerprint="..."} 42

        Label values are escaped (:func:`~repro.obs.exposition.
        escape_label_value`); the whole family renders from one
        consistent snapshot.
        """
        rows = self.snapshot(by="total_ms", limit=limit)
        base = prefix + sanitize("stmt")
        lines = [f"# TYPE {base}_calls_total counter",
                 f"# TYPE {base}_values_total counter",
                 f"# TYPE {base}_truncated_total counter",
                 f"# TYPE {base}_faulted_total counter",
                 f"# TYPE {base}_latency_ms summary"]
        for row in rows:
            fp = escape_label_value(row["fingerprint"])
            text = escape_label_value(row["text"])
            labels = f'{{fingerprint="{fp}",text="{text}"}}'
            key = f'{{fingerprint="{fp}"}}'
            wall = row["wall_ms"]
            lines.append(f"{base}_calls_total{labels} {row['calls']}")
            lines.append(f"{base}_values_total{key} {row['values']}")
            lines.append(
                f"{base}_truncated_total{key} {row['truncations']}")
            lines.append(f"{base}_faulted_total{key} {row['faults']}")
            lines.append(
                f'{base}_latency_ms{{fingerprint="{fp}",'
                f'quantile="0.5"}} {wall["p50"]:g}')
            lines.append(
                f'{base}_latency_ms{{fingerprint="{fp}",'
                f'quantile="0.95"}} {wall["p95"]:g}')
            lines.append(f"{base}_latency_ms_sum{key} {wall['sum']:g}")
            lines.append(f"{base}_latency_ms_count{key} {wall['count']}")
        state = self.state()
        lines.append(f"# TYPE {base}_table_entries gauge")
        lines.append(f"{base}_table_entries {state['entries']}")
        lines.append(f"# TYPE {base}_table_evicted_total counter")
        lines.append(f"{base}_table_evicted_total {state['evicted']}")
        return lines

    def prometheus_target_lines(self, prefix: str = "duel_",
                                limit: int = 32) -> list[str]:
        """The memory-observatory families for ``/metrics``.

        Per-fingerprint target-traffic gauges plus pattern counters,
        capped at the top ``limit`` fingerprints by reads — same
        bounded-cardinality discipline as the ``duel_stmt_*``
        families.  Shapes that never ran access-profiled still expose
        ``reads_per_value`` (the scalar counters suffice); the
        locality and pattern families need a profiled run::

            duel_target_reads_per_value{fingerprint="..."} 617.5
            duel_target_page_locality{fingerprint="..."} 15.9
            duel_target_pattern_total{fingerprint="...",pattern="strided"} 3
            duel_target_profiles_total 7
        """
        rows = self.snapshot(by="reads", limit=limit)
        base = prefix + sanitize("target")
        lines = [f"# TYPE {base}_reads_per_value gauge",
                 f"# TYPE {base}_page_locality gauge",
                 f"# TYPE {base}_reread_ratio gauge",
                 f"# TYPE {base}_pattern_total counter"]
        profiles_total = 0
        for row in rows:
            fp = escape_label_value(row["fingerprint"])
            key = f'{{fingerprint="{fp}"}}'
            lines.append(
                f"{base}_reads_per_value{key} {row['reads_per_value']:g}")
            if not row["profiles"]:
                continue
            profiles_total += row["profiles"]
            lines.append(
                f"{base}_page_locality{key} {row['page_locality']:g}")
            lines.append(
                f"{base}_reread_ratio{key} {row['reread_ratio']:g}")
            pattern = escape_label_value(row["pattern"])
            lines.append(
                f'{base}_pattern_total{{fingerprint="{fp}",'
                f'pattern="{pattern}"}} '
                f'{self._pattern_count(row["fingerprint"], row["pattern"])}')
        lines.append(f"# TYPE {base}_profiles_total counter")
        lines.append(f"{base}_profiles_total {profiles_total}")
        return lines

    def _pattern_count(self, fingerprint: str, pattern: str) -> int:
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                return 0
            return entry.patterns.get(pattern, 0)


def describe(rows: list[dict], state: Optional[dict] = None) -> list[str]:
    """Human-readable lines for the REPL/ops ``statements`` command."""
    lines = []
    if state is not None:
        lines.append(f"statements: {state['entries']} shapes "
                     f"(capacity {state['capacity']}, "
                     f"{state['evicted']} evicted, "
                     f"{state['recorded']} recorded)")
    header = (f"{'calls':>7} {'total ms':>10} {'mean ms':>9} "
              f"{'p95 ms':>9} {'values':>8} {'rd/val':>8} "
              f"{'trunc':>6} {'fault':>6}  shape")
    lines.append(header)
    for row in rows:
        wall = row["wall_ms"]
        values = row.get("values", 0)
        rpv = row.get("reads_per_value")
        if rpv is None:
            rpv = row.get("reads", 0) / values if values \
                else float(row.get("reads", 0))
        lines.append(
            f"{row['calls']:>7} {wall['sum']:>10.2f} "
            f"{wall['mean']:>9.3f} {wall['p95']:>9.3f} "
            f"{row['values']:>8} {rpv:>8.1f} "
            f"{row['truncations']:>6} "
            f"{row['faults']:>6}  {row['text']}")
    return lines
