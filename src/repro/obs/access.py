"""Target memory-access observatory: profiles and prefetch advice.

The fleet is legible at the query level (spans, qlog, statements,
``duel-top``) but the scalar read counter says nothing about *where*
target traffic lands: BENCH_3 records ``hash_scan`` issuing 1234
``get_target_bytes`` calls to yield 2 values with no addresses, no
strides, no locality.  An access-traced query's engine tracer
(:class:`~repro.obs.trace.QueryTracer`) keeps a bounded ring of
``(op, address, size, span)`` records, fed at the narrow
DebuggerInterface Hanson's design already funnels everything through
(:class:`~repro.target.interface.TracingBackend`, the same hop that
counts reads onto spans); ``span`` is the preorder index of the AST
node being pulled.  This module turns that raw stream into answers:

* :func:`profile_records` — the per-query **access profile**: total
  and unique bytes (interval-merged), unique pages at a configurable
  page size, re-read ratio, a stride histogram over consecutive read
  addresses, and a scan-pattern classification;
* :func:`classify_pattern` — ``sequential`` (dominant stride equals
  the access size: a contiguous scan), ``strided`` (one dominant
  stride, e.g. one field per array-of-struct slot), ``pointer-chase``
  (irregular strides but every cell touched about once — a chain
  walk), ``random`` (irregular strides with re-reads), or ``scalar``
  for queries too small to call;
* :func:`simulate_page_cache` / :func:`advise` — the **prefetch
  advisor**: replay the recorded trace through a simulated LRU page
  cache, sweeping page size × capacity, and report the projected hit
  rate each configuration would have had — what batching reads into
  pages would save over a channel where each read is a round trip;
* :class:`AccessLog` — the ``--access-trace`` JSONL export.

Hot-path discipline matches every prior observability layer: a query
nobody access-traces pays nothing here, and a read pays one predicate
in the tracing hop (gated <5% on P3 by ``benchmarks/bench_access.py``);
which queries are access-traced is the session's one sampling verdict
(:class:`~repro.obs.trace.Sampler`).
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from typing import Optional

from repro.obs.jsonl import JsonlFile

#: Default page size (bytes) profiles aggregate locality at.
DEFAULT_PAGE_SIZE = 64

#: The advisor's default sweep: page size × cache capacity (pages).
ADVISOR_PAGE_SIZES = (64, 256, 4096)
ADVISOR_CAPACITIES = (4, 32)

#: Classification vocabulary, closed on purpose (Prometheus labels).
PATTERNS = ("sequential", "strided", "pointer-chase", "random", "scalar")

#: Minimum consecutive-read deltas before a pattern is called.
_MIN_DELTAS = 4

#: Dominant-stride share at or above which a scan is regular.
_DOMINANT_SHARE = 0.70

#: Revisit ratio below which an irregular scan is a chain walk
#: (every cell visited about once) rather than random access.
_CHASE_REVISIT = 0.05


def _merge_intervals(intervals: list[tuple[int, int]]) -> int:
    """Total covered length of ``[start, end)`` intervals."""
    if not intervals:
        return 0
    intervals.sort()
    covered = 0
    start, end = intervals[0]
    for lo, hi in intervals[1:]:
        if lo > end:
            covered += end - start
            start, end = lo, hi
        elif hi > end:
            end = hi
    return covered + (end - start)


def classify_pattern(stride_counts: Counter, deltas: int,
                     dominant_size: int, revisit_ratio: float) -> str:
    """Name the scan pattern from the stride histogram.

    ``stride_counts`` histograms the *non-zero* deltas between
    consecutive read addresses (in-place re-reads say nothing about
    scan direction); ``dominant_size`` is the most common access
    size; ``revisit_ratio`` is the fraction of reads that returned to
    an address left earlier.  The heuristics, in order: too few
    deltas is ``scalar``; one stride covering ≥70% of the deltas is a
    regular scan — ``sequential`` when the stride equals the access
    size (contiguous), ``strided`` otherwise (e.g. one field per
    struct slot); an irregular scan that touches each cell about once
    (revisit ratio ≤5%) is a ``pointer-chase`` (each address came out
    of the previous read — a chain has no reason to come back);
    irregular with revisits is ``random``.
    """
    if deltas < _MIN_DELTAS:
        return "scalar"
    stride, count = stride_counts.most_common(1)[0]
    share = count / deltas
    if share >= _DOMINANT_SHARE:
        if 0 < stride <= dominant_size:
            return "sequential"
        return "strided"
    if revisit_ratio <= _CHASE_REVISIT:
        return "pointer-chase"
    return "random"


def profile_records(records: list[tuple],
                    page_size: int = DEFAULT_PAGE_SIZE) -> dict:
    """Aggregate raw access records into one per-query profile dict.

    Pure function of the recorded ring — the serve layer, the REPL
    ``accesses`` report, the statements table and the JSONL export all
    consume this one shape.
    """
    if page_size < 1:
        raise ValueError("page size must be >= 1")
    reads = writes = 0
    total_bytes = 0
    intervals: list[tuple[int, int]] = []
    pages: set[int] = set()
    by_span: Counter = Counter()
    strides: Counter = Counter()
    sizes: Counter = Counter()
    seen: set[int] = set()
    inplace = 0
    revisits = 0
    last_read: Optional[int] = None
    for op, address, size, span in records:
        total_bytes += size
        intervals.append((address, address + size))
        pages.update(range(address // page_size,
                           (address + size - 1) // page_size + 1))
        by_span[span] += 1
        if op == "r":
            reads += 1
            sizes[size] += 1
            if last_read is not None:
                delta = address - last_read
                if delta:
                    strides[delta] += 1
                    if address in seen:
                        revisits += 1
                else:
                    # An in-place re-read (the evaluator loading the
                    # same cell twice) says nothing about the scan
                    # direction — counted apart so a sequential scan
                    # with double-loads still classifies sequential.
                    inplace += 1
            seen.add(address)
            last_read = address
        else:
            writes += 1
    accesses = reads + writes
    unique_bytes = _merge_intervals(intervals)
    reread_ratio = ((total_bytes - unique_bytes) / total_bytes
                    if total_bytes else 0.0)
    deltas = sum(strides.values())
    dominant_size = sizes.most_common(1)[0][0] if sizes else 0
    revisit_ratio = revisits / reads if reads else 0.0
    if strides:
        dominant_stride, dominant_count = strides.most_common(1)[0]
        dominant_share = dominant_count / deltas
    else:
        dominant_stride, dominant_share = None, 0.0
    pattern = classify_pattern(strides, deltas, dominant_size,
                               revisit_ratio)
    unique_pages = len(pages)
    return {
        "accesses": accesses,
        "reads": reads,
        "writes": writes,
        "total_bytes": total_bytes,
        "unique_bytes": unique_bytes,
        "reread_ratio": round(reread_ratio, 4),
        "page_size": page_size,
        "unique_pages": unique_pages,
        # Accesses per touched page: the locality number an operator
        # compares against page_size/access_size (the contiguous ideal).
        "page_locality": round(accesses / unique_pages, 2)
        if unique_pages else 0.0,
        "stride_histogram": [[stride, count] for stride, count
                             in strides.most_common(8)],
        "inplace_rereads": inplace,
        "revisit_ratio": round(revisit_ratio, 4),
        "dominant_stride": dominant_stride,
        "dominant_share": round(dominant_share, 4),
        "pattern": pattern,
        "top_spans": [[span, count] for span, count
                      in by_span.most_common(4)],
        "dropped": 0,
    }


def compact_profile(profile: dict) -> dict:
    """The handful of locality fields qlog terminal records carry."""
    return {"accesses": profile["accesses"],
            "unique_bytes": profile["unique_bytes"],
            "unique_pages": profile["unique_pages"],
            "page_size": profile["page_size"],
            "reread_ratio": profile["reread_ratio"],
            "pattern": profile["pattern"]}


# -- the prefetch advisor ----------------------------------------------------

def simulate_page_cache(records: list[tuple], page_size: int,
                        capacity: int) -> dict:
    """Replay the recorded trace through a simulated LRU page cache.

    Every access touches the page(s) covering its byte range; a page
    already resident is a hit (and refreshed), a missing page is a
    miss that evicts the least recently used page past ``capacity``.
    The projected hit rate is what a page-granular read cache in front
    of ``get_target_bytes`` (ROADMAP item 1) would have delivered for
    this exact query — measured from the trace, not guessed.
    """
    if page_size < 1 or capacity < 1:
        raise ValueError("page size and capacity must be >= 1")
    lru: OrderedDict = OrderedDict()
    hits = misses = 0
    for op, address, size, _span in records:
        for page in range(address // page_size,
                          (address + size - 1) // page_size + 1):
            if page in lru:
                hits += 1
                lru.move_to_end(page)
            else:
                misses += 1
                lru[page] = None
                if len(lru) > capacity:
                    lru.popitem(last=False)
    touches = hits + misses
    return {"page_size": page_size,
            "capacity": capacity,
            "hits": hits,
            "misses": misses,
            "hit_rate": round(hits / touches, 4) if touches else 0.0,
            "fetched_bytes": misses * page_size}


def advise(records: list[tuple],
           page_sizes=ADVISOR_PAGE_SIZES,
           capacities=ADVISOR_CAPACITIES) -> list[dict]:
    """Sweep page size × capacity; best projected hit rate first.

    Ties break toward the smaller cache footprint (page_size ×
    capacity): the advisor should recommend the cheapest cache that
    achieves the hit rate, not the biggest.
    """
    projections = [simulate_page_cache(records, page_size, capacity)
                   for page_size in page_sizes
                   for capacity in capacities]
    projections.sort(key=lambda p: (-p["hit_rate"],
                                    p["page_size"] * p["capacity"]))
    return projections


def render_report(text: str, profile: dict,
                  advice: list[dict]) -> list[str]:
    """Human-readable lines for the REPL ``accesses`` command."""
    lines = [f"accesses: {text}"]
    lines.append(
        f"  {profile['accesses']} accesses "
        f"({profile['reads']} reads, {profile['writes']} writes), "
        f"{profile['total_bytes']} bytes moved, "
        f"{profile['unique_bytes']} unique "
        f"(re-read {profile['reread_ratio'] * 100:.1f}%)")
    dominant = profile["dominant_stride"]
    if dominant is not None:
        lines.append(
            f"  pattern: {profile['pattern']} "
            f"(dominant stride {dominant:+d} = "
            f"{profile['dominant_share'] * 100:.1f}% of deltas)")
    else:
        lines.append(f"  pattern: {profile['pattern']}")
    lines.append(
        f"  pages({profile['page_size']}B): "
        f"{profile['unique_pages']} unique, locality "
        f"{profile['page_locality']:.1f} accesses/page")
    if profile["stride_histogram"]:
        top = "  ".join(f"{stride:+d}×{count}"
                        for stride, count in profile["stride_histogram"])
        lines.append(f"  strides: {top}")
    if profile.get("dropped"):
        lines.append(f"  (ring dropped {profile['dropped']} oldest "
                     f"records; profile covers the tail)")
    if advice:
        lines.append("  prefetch advisor (simulated LRU page cache):")
        for entry in advice:
            lines.append(
                f"    {entry['page_size']:>5}B × "
                f"{entry['capacity']:>3} pages: "
                f"{entry['hit_rate'] * 100:5.1f}% hits "
                f"({entry['misses']} fetches, "
                f"{entry['fetched_bytes']}B fetched)")
        best = advice[0]
        lines.append(
            f"  projected best: {best['page_size']}B × "
            f"{best['capacity']} pages → "
            f"{best['hit_rate'] * 100:.1f}% of "
            f"{profile['accesses']} accesses served from cache "
            f"({best['misses']} bulk fetches)")
    return lines


class AccessLog:
    """Thread-safe JSONL exporter for per-query access profiles.

    The ``--access-trace`` sink: every access-traced query's profile,
    one ``{"ev": "access", ...}`` line each.  Which queries are
    access-traced is the session's sampling verdict, not this log's.
    """

    def __init__(self, stream_or_path):
        self._file = JsonlFile(stream_or_path)

    @property
    def exported(self) -> int:
        """Profiles written so far."""
        return self._file.lines

    def observe(self, record) -> None:
        """Export an access-traced query's profile (a session sink;
        ``record`` is a :class:`~repro.core.session.QueryRecord`)."""
        if record.access is None:
            return
        line = {"ev": "access", "text": record.text,
                "outcome": record.outcome, "values": record.values,
                "profile": record.access}
        if record.fingerprint is not None:
            line["fingerprint"] = record.fingerprint.hash
        if record.trace_id is not None:
            line["trace_id"] = record.trace_id
        self.export(line)

    def export(self, record: dict) -> None:
        """Write one ``{"ev": "access", ...}`` record (flushed)."""
        self._file.write(record)

    def close(self) -> None:
        self._file.close()
