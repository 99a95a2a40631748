"""Wire-propagated request tracing for the query service.

The engine tracer (:mod:`repro.obs.trace`) profiles a query from parse
to last value — *inside* the session.  A served query spends time in
places the engine never sees: the admission queue, the session RW
lock, the stream back to the client.  This module adds the server-side
span tree that closes that gap:

``admission_queue → session_lock (read|write) → parse → drive → stream``

Every ``duel`` op carries a ``trace`` id — client-generated when the
client wants to correlate, server-assigned otherwise — and the server
echoes it on **every** frame it sends for that request, so a slow
query seen by a client is attributable end to end.  Completed traces
export as one JSONL record per request through :class:`TraceLog`,
tagged with trace_id/session_id and carrying both the server phase
spans and the engine's per-AST-node spans when the query ran traced.

Sampling is head-based and decided once per query, by the session's
:class:`~repro.obs.trace.Sampler` (``--trace-sample N``: counter-based,
so exactly every Nth query is taken — deterministic for tests).  A
request is exported when its query was sampled, **or** it ended
truncated, faulted, cancelled or slower than the slow-query threshold,
regardless of the coin.  The same verdict decides whether the engine
tracer runs (and, with ``--access-trace``, whether the query's
accesses are profiled), so the per-node instrumentation cost follows
the same 1-in-N dilution, and every sampled access profile has its
request trace in the export.
"""

from __future__ import annotations

import binascii
import os
from typing import Optional

from repro.obs.jsonl import JsonlFile

#: Server phase names, in causal order.
SERVER_PHASES = ("admission_queue", "session_lock", "parse", "drive",
                 "stream")

#: Outcomes that force export even when the head-sampling coin said no.
ALWAYS_EXPORT = frozenset({"truncated", "faulted", "cancelled"})

#: Longest client-supplied trace id the server will echo verbatim.
TRACE_ID_MAX = 128


def make_trace_id() -> str:
    """A fresh 16-hex-char trace id (collision-safe per process run)."""
    return binascii.hexlify(os.urandom(8)).decode("ascii")


class RequestTrace:
    """The span tree of one served request (built by one worker).

    Spans are ``(name, milliseconds)`` plus optional attributes; the
    worker that drives the request is the only writer, so no lock —
    the trace is handed to the :class:`TraceLog` whole, after the
    terminal frame.
    """

    __slots__ = ("trace_id", "session_id", "request_id", "text",
                 "spans", "engine_spans", "outcome", "fingerprint")

    def __init__(self, trace_id: str, session_id: str,
                 request_id: Optional[str] = None, text: str = ""):
        self.trace_id = trace_id
        self.session_id = session_id
        self.request_id = request_id
        self.text = text
        self.spans: list[dict] = []
        self.engine_spans: list[dict] = []
        self.outcome: Optional[str] = None
        self.fingerprint: Optional[str] = None

    def span(self, name: str, ms: float, **attrs) -> None:
        """Record one server phase (monotonic-clock milliseconds)."""
        record = {"name": name, "ms": round(ms, 3)}
        if attrs:
            record.update(attrs)
        self.spans.append(record)

    def phase_ms(self) -> dict:
        """Phase name → milliseconds (statement-statistics feed).

        ``session_lock`` maps to ``lock`` and ``admission_queue`` to
        ``queue`` so the statements table uses one short vocabulary
        across session and serve phases.
        """
        short = {"admission_queue": "queue", "session_lock": "lock"}
        return {short.get(s["name"], s["name"]): s["ms"]
                for s in self.spans}

    def total_ms(self) -> float:
        return sum(s["ms"] for s in self.spans)

    def as_dict(self) -> dict:
        record = {
            "ev": "request",
            "trace_id": self.trace_id,
            "session_id": self.session_id,
            "outcome": self.outcome,
            "wall_ms": round(self.total_ms(), 3),
            "spans": list(self.spans),
        }
        if self.request_id is not None:
            record["request_id"] = self.request_id
        if self.text:
            record["text"] = self.text
        if self.fingerprint is not None:
            record["fingerprint"] = self.fingerprint
        if self.engine_spans:
            record["engine_spans"] = self.engine_spans
        return record


class TraceLog:
    """Thread-safe JSONL exporter for completed request traces.

    Accepts a path or any writable text stream (see
    :class:`~repro.obs.jsonl.JsonlFile`).
    """

    def __init__(self, stream_or_path, fsync: bool = False):
        self._file = JsonlFile(stream_or_path, fsync=fsync)

    @property
    def exported(self) -> int:
        """Traces written so far."""
        return self._file.lines

    def export(self, trace: RequestTrace, sampled: bool = True,
               slow: bool = False) -> None:
        """Write one completed trace (whole record, flushed) when its
        query was ``sampled``, ``slow``, or ended in one of
        :data:`ALWAYS_EXPORT`."""
        if sampled or slow or trace.outcome in ALWAYS_EXPORT:
            self._file.write(trace.as_dict())

    def close(self) -> None:
        self._file.close()


def valid_trace_id(value) -> bool:
    """Is ``value`` a trace id the server will echo verbatim?

    Printable, no whitespace, bounded length — the id lands in JSONL
    logs and Prometheus exemplars, so control characters are out.
    """
    if not isinstance(value, str) or not value:
        return False
    if len(value) > TRACE_ID_MAX:
        return False
    return all(33 <= ord(ch) < 127 for ch in value)
