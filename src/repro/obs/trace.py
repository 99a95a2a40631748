"""Per-query execution tracing for the generator engines.

A traced query records, for every AST node, a :class:`NodeSpan`
aggregate — how many times the node was *pulled* (asked for its next
value), how many values it *yielded*, the cumulative wall-clock spent
inside it (inclusive of its children, measured with
``time.perf_counter_ns``), and the target traffic (reads, writes,
calls) attributed to it — plus, optionally, the full ordered stream of
``pull``/``yield`` events delivered to a :class:`TraceSink`.

Hot-path discipline (same as the governor's): with tracing *off* the
only cost is one predicate check per node activation in
``Evaluator.eval`` / ``StateMachineEvaluator.eval`` and one per target
read in ``TracingBackend`` (bench-verified ≤5% on the P3 workload by
``benchmarks/bench_trace.py``).  With tracing *on*, every pull pays
two ``perf_counter_ns`` calls, a stack push/pop and a list append: the
tracer hands its events to the sink in order, in batches of
:data:`EMIT_BATCH` and at :meth:`QueryTracer.finish`, so a locking
sink takes its lock once per batch, not twice per value.

Both evaluation engines funnel through the same :class:`QueryTracer`:
the generator engine wraps each node's iterator
(:meth:`QueryTracer.wrap`), the paper's state-machine engine brackets
each ``eval`` call (:meth:`QueryTracer.enter` /
:meth:`QueryTracer.exit_yield` / :meth:`QueryTracer.exit_end`).  The
two instrumentation points are placed so that **the engines emit
identical event sequences for the same query** — checked by the
parity property tests in ``tests/property/test_engines.py``, which
makes the trace stream a correctness oracle for the state machine.

The same tracer is the memory-access observatory's recorder: an
access-traced query's tracer also keeps a bounded ring of
``(op, address, size, span)`` records, fed by the same
:class:`~repro.target.interface.TracingBackend` calls that count reads
and writes onto spans (:mod:`repro.obs.access` turns the ring into a
profile).  Whether a query is observed at all — traced, access-traced,
recorded in depth, exported — is one decision per query, made by one
:class:`Sampler` in :meth:`~repro.core.session.DuelSession.ievents`.

Trace JSON schema (one object per JSONL line):

``{"ev": "query", "q": N, "text": "...", "nodes": [{"i":, "op":, "label":}...]}``
    query header: the AST's nodes in preorder, ``i`` indexing them;
``{"ev": "pull", "q": N, "i": node}`` / ``{"ev": "yield", ...}``
    one line per pull/yield event, in execution order;
``{"ev": "span", "q": N, "i":, "op":, "label":, "depth":, "pulls":,
"yields":, "ns":, "reads":, "writes":, "calls":}``
    one line per node at query end: the final aggregates.
"""

from __future__ import annotations

import threading
from collections import deque
from time import perf_counter_ns
from typing import Iterator, Optional

from repro.core import nodes as N
from repro.obs.access import DEFAULT_PAGE_SIZE, profile_records
from repro.obs.jsonl import JsonlFile

#: Events a tracer holds before handing them to its sink.
EMIT_BATCH = 1024

#: Access records an access-traced query keeps: enough for the worst
#: observed workload (hash_scan's 1234 reads) with two orders of
#: magnitude of headroom.
ACCESS_CAPACITY = 65536


class Sampler:
    """The one head-sampling coin: which queries are observed in depth.

    ``sample()`` is True for every Nth call — counter-based, so
    exactly every Nth query is taken (deterministic for tests) — and
    lock-guarded, so one sampler can be shared by every session of a
    server.  The engine tracer, access tracing, the flight recorder's
    explain tree and the served request-trace export all follow its
    one verdict per query (``--trace-sample N``).
    """

    def __init__(self, every: int = 1):
        if every < 1:
            raise ValueError("trace sample must be >= 1")
        self.every = every
        self._seen = 0
        self._lock = threading.Lock()

    def sample(self) -> bool:
        with self._lock:
            self._seen += 1
            return self._seen % self.every == 0


class NodeSpan:
    """Aggregated execution profile of one AST node within one query."""

    __slots__ = ("index", "op", "label", "depth", "pulls", "yields",
                 "time_ns", "reads", "writes", "calls")

    def __init__(self, index: int, op: str, label: str, depth: int):
        self.index = index
        self.op = op
        self.label = label
        #: Static nesting depth in the AST (root = 0).
        self.depth = depth
        self.pulls = 0
        self.yields = 0
        #: Inclusive wall-clock nanoseconds (children included).
        self.time_ns = 0
        self.reads = 0
        self.writes = 0
        self.calls = 0

    def as_dict(self) -> dict:
        return {"i": self.index, "op": self.op, "label": self.label,
                "depth": self.depth, "pulls": self.pulls,
                "yields": self.yields, "ns": self.time_ns,
                "reads": self.reads, "writes": self.writes,
                "calls": self.calls}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<span {self.index} {self.label!r} pulls={self.pulls} "
                f"yields={self.yields} ns={self.time_ns}>")


def node_label(node: N.Node) -> str:
    """The node's short symbolic form, matching the sexpr notation."""
    extra = node._sexpr_extra()
    return f"{node.op} {extra}" if extra else node.op


class TraceSink:
    """Where trace events go.  Base class: drops everything."""

    def begin_query(self, text: str, spans: list) -> None:
        """A traced query is starting (``spans`` in preorder)."""

    def emit(self, kind: str, index: int) -> None:
        """One ``pull``/``yield`` event for node ``index``."""

    def emit_many(self, events: list) -> None:
        """A run of ``(kind, index)`` events, in order."""
        for kind, index in events:
            self.emit(kind, index)

    def end_query(self, spans: list) -> None:
        """The query finished; ``spans`` hold the final aggregates."""

    def flush(self) -> None:
        """Push buffered events to durable storage (file sinks)."""

    def close(self) -> None:
        """Release any resources (files) held by the sink."""


class RingBufferSink(TraceSink):
    """In-memory sink keeping the last ``capacity`` events.

    The ring bounds memory for unbounded queries (``1..`` under
    ``trace on``): old events fall off the front, ``dropped`` counts
    them so consumers know the window is partial.

    Thread-safe: the length check, ``dropped`` increment and append
    must be one atomic step (two tracers sharing a sink would
    under-count drops and interleave half-recorded state), and
    :meth:`snapshot` copies under the same lock so a reader racing
    live emits never sees the deque mid-rotation.
    """

    def __init__(self, capacity: int = 65536):
        self.capacity = capacity
        self.events: deque[tuple[str, int]] = deque(maxlen=capacity)
        self.dropped = 0
        self.queries = 0
        self._lock = threading.Lock()

    def begin_query(self, text: str, spans: list) -> None:
        with self._lock:
            self.queries += 1

    def emit(self, kind: str, index: int) -> None:
        with self._lock:
            if len(self.events) == self.capacity:
                self.dropped += 1
            self.events.append((kind, index))

    def emit_many(self, events: list) -> None:
        with self._lock:
            # Each event past capacity displaces exactly one.
            overflow = len(self.events) + len(events) - self.capacity
            if overflow > 0:
                self.dropped += overflow
            self.events.extend(events)

    def snapshot(self) -> list[tuple[str, int]]:
        """A consistent copy of the buffered events."""
        with self._lock:
            return list(self.events)

    def clear(self) -> None:
        with self._lock:
            self.events.clear()
            self.dropped = 0


class JsonlSink(TraceSink):
    """Writes the trace as JSON-lines (the ``--trace-json`` exporter).

    Accepts a path or any writable text stream (see
    :class:`~repro.obs.jsonl.JsonlFile`); ``fsync=True`` additionally
    fsyncs on every flush point, so the trace survives losing the
    machine, not just losing the process.
    """

    def __init__(self, stream_or_path, fsync: bool = False):
        self._file = JsonlFile(stream_or_path, fsync=fsync)
        self._query = 0

    def begin_query(self, text: str, spans: list) -> None:
        self._query += 1
        nodes = [{"i": s.index, "op": s.op, "label": s.label}
                 for s in spans]
        self._file.write({"ev": "query", "q": self._query, "text": text,
                          "nodes": nodes}, flush=False)

    def emit(self, kind: str, index: int) -> None:
        self._file.write({"ev": kind, "q": self._query, "i": index},
                         flush=False)

    def end_query(self, spans: list) -> None:
        self._file.write(*({"ev": "span", "q": self._query,
                            **span.as_dict()} for span in spans))

    def flush(self) -> None:
        self._file.flush()

    def close(self) -> None:
        """Flush, then close the stream if this sink opened it.

        ``end_query`` flushes after every query (and the tracer's
        ``finish`` runs in the drive's ``finally``, interrupts
        included), so even a query aborted by ^C leaves its records on
        disk; close is belt-and-braces for session teardown.
        """
        self._file.close()


class QueryTracer:
    """Per-query span recorder + event emitter, shared by both engines.

    Life cycle: :meth:`begin` walks the AST assigning preorder indices
    and fresh spans; the engines then report pulls/yields through
    :meth:`wrap` (generator engine) or :meth:`enter`/``exit_*`` (state
    machine); :meth:`finish` hands the sink the last events and the
    span aggregates.  Target traffic lands on the innermost active span
    via :meth:`on_read`/:meth:`on_write`/:meth:`on_call`, fed by
    :class:`~repro.target.interface.TracingBackend`; with ``access``
    on, every read and write is also kept as an ``(op, address, size,
    span)`` record (``span`` -1 when no node is being pulled) in a ring
    of the last ``ACCESS_CAPACITY``, ``dropped`` counting the rest.
    """

    __slots__ = ("sink", "spans", "_by_id", "_stack", "_events",
                 "query_text", "access_ring", "dropped")

    def __init__(self, sink: Optional[TraceSink] = None,
                 access: bool = False):
        self.sink = sink
        self.spans: list[NodeSpan] = []
        self._by_id: dict[int, NodeSpan] = {}
        self._stack: list[NodeSpan] = []
        #: Events not yet handed to the sink (None without a sink).
        self._events: Optional[list] = None
        self.query_text = ""
        #: The access records (None unless access-traced).
        self.access_ring: Optional[deque] = \
            deque(maxlen=ACCESS_CAPACITY) if access else None
        self.dropped = 0

    # -- life cycle --------------------------------------------------------
    def begin(self, root: N.Node, text: str = "") -> None:
        """Assign preorder indices to ``root``'s tree and reset spans."""
        self.query_text = text
        self.spans = []
        self._by_id = {}
        self._stack = []
        self._register_tree(root, 0)
        if self.sink is not None:
            self._events = []
            self.sink.begin_query(text, self.spans)

    def _register_tree(self, node: N.Node, depth: int) -> None:
        span = NodeSpan(len(self.spans), node.op, node_label(node), depth)
        self.spans.append(span)
        self._by_id[id(node)] = span
        for kid in node.kids:
            self._register_tree(kid, depth + 1)

    def finish(self) -> None:
        """Flush the last events and the final span aggregates to the
        sink."""
        if self.sink is not None:
            self._emit()
            self.sink.end_query(self.spans)

    def _emit(self) -> None:
        """Hand the held events to the sink."""
        events = self._events
        if events:
            try:
                self.sink.emit_many(events)
            finally:
                events.clear()

    def span_for(self, node: N.Node) -> NodeSpan:
        """The node's span (registering stragglers deterministically)."""
        span = self._by_id.get(id(node))
        if span is None:
            # A node outside the registered tree (defensive): register
            # at first encounter — both engines meet nodes in the same
            # order, so parity is preserved.
            depth = len(self._stack)
            span = NodeSpan(len(self.spans), node.op, node_label(node),
                            depth)
            self.spans.append(span)
            self._by_id[id(node)] = span
        return span

    # -- generator engine --------------------------------------------------
    def wrap(self, node: N.Node, it: Iterator) -> Iterator:
        """Meter one activation of ``node``'s value iterator."""
        span = self.span_for(node)
        events = self._events
        pulled, yielded = ("pull", span.index), ("yield", span.index)
        stack = self._stack
        while True:
            span.pulls += 1
            if events is not None:
                events.append(pulled)
            stack.append(span)
            t0 = perf_counter_ns()
            try:
                value = next(it)
            except StopIteration:
                span.time_ns += perf_counter_ns() - t0
                stack.pop()
                return
            except BaseException:
                span.time_ns += perf_counter_ns() - t0
                stack.pop()
                raise
            span.time_ns += perf_counter_ns() - t0
            stack.pop()
            span.yields += 1
            if events is not None:
                events.append(yielded)
                if len(events) >= EMIT_BATCH:
                    self._emit()
            yield value

    # -- state-machine engine ----------------------------------------------
    def enter(self, node: N.Node) -> tuple[NodeSpan, int]:
        """One eval call (= one pull) of ``node`` is starting."""
        span = self.span_for(node)
        span.pulls += 1
        if self._events is not None:
            self._events.append(("pull", span.index))
        self._stack.append(span)
        return span, perf_counter_ns()

    def exit_yield(self, span: NodeSpan, t0: int) -> None:
        """The eval call produced a value."""
        span.time_ns += perf_counter_ns() - t0
        self._stack.pop()
        span.yields += 1
        events = self._events
        if events is not None:
            events.append(("yield", span.index))
            if len(events) >= EMIT_BATCH:
                self._emit()

    def exit_end(self, span: NodeSpan, t0: int) -> None:
        """The eval call returned NOVALUE (sequence exhausted)."""
        span.time_ns += perf_counter_ns() - t0
        self._stack.pop()

    def exit_error(self, span: NodeSpan, t0: int) -> None:
        """The eval call raised; unwind like the generator wrapper."""
        span.time_ns += perf_counter_ns() - t0
        self._stack.pop()

    # -- target-traffic attribution ----------------------------------------
    def on_read(self, address: int, size: int) -> None:
        stack = self._stack
        if stack:
            stack[-1].reads += 1
        if self.access_ring is not None:
            self._access("r", address, size)

    def on_write(self, address: int, size: int) -> None:
        stack = self._stack
        if stack:
            stack[-1].writes += 1
        if self.access_ring is not None:
            self._access("w", address, size)

    def on_call(self) -> None:
        stack = self._stack
        if stack:
            stack[-1].calls += 1

    def _access(self, op: str, address: int, size: int) -> None:
        ring = self.access_ring
        if len(ring) == ring.maxlen:
            self.dropped += 1
        stack = self._stack
        ring.append((op, address, size, stack[-1].index if stack else -1))

    # -- reporting ---------------------------------------------------------
    def events(self) -> list[tuple[str, int]]:
        """The recorded event sequence (ring-buffer sinks only)."""
        if isinstance(self.sink, RingBufferSink):
            self._emit()
            return self.sink.snapshot()
        return []

    def access_records(self) -> list[tuple]:
        """The kept ``(op, address, size, span)`` records, oldest first
        (empty unless the query is access-traced)."""
        return list(self.access_ring or ())

    def accesses(self) -> list[tuple[str, int, int]]:
        """The ``(op, address, size)`` sequence (engine-parity oracle)."""
        return [record[:3] for record in self.access_records()]

    def access_profile(self, page_size: int = DEFAULT_PAGE_SIZE) -> dict:
        """The access profile of the kept records
        (:func:`~repro.obs.access.profile_records`)."""
        profile = profile_records(self.access_ring or (), page_size)
        profile["dropped"] = self.dropped
        return profile

    def total_ns(self) -> int:
        """Inclusive nanoseconds of the root span (index 0)."""
        return self.spans[0].time_ns if self.spans else 0
