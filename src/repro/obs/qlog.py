"""Structured query log: one JSONL record per query lifecycle event.

PR 3's tracer answers "where did *this* query spend its time" and
forgets the answer when the next query starts.  The query log is the
durable complement: every query a session drives gets a monotonically
assigned query ID and an append-only JSONL audit trail —

``{"ev": "received", "qid": N, "ts": ..., "text": ..., "engine": ...}``
    the query text arrived;
``{"ev": "parsed", "qid": N, "parse_ms": ..., "nodes": ...}``
    it compiled (AST size recorded);
``{"ev": "drained" | "truncated" | "cancelled" | "faulted" |
"rejected", "qid": N, "values": ..., ...}``
    exactly one terminal record per query: how it ended, how many
    values it produced, the governor verdict
    (:attr:`~repro.core.errors.DuelEvalLimit.kind`) when a limit
    tripped, the error text when it faulted, per-phase timings
    (parse/eval/format, milliseconds) and the query's target traffic
    (reads/writes/calls/allocs).

A query that fails to compile gets ``received`` → ``rejected`` (no
``parsed`` record).  Terminal records are flushed as they are written,
so an unattended run killed mid-session still leaves a parseable log
up to and including its last completed query.

The serve layer additionally writes qid-less **server records** for
connection-level lifecycle events the fault-tolerance machinery
produces (``{"ev": "server", "kind": ..., ...}``): heartbeat reaps,
watchdog hard-cancels, circuit-breaker trips and recoveries, session
parking and resumption.  Analyzers keying on qids should filter on
``ev != "server"``; :data:`SERVER_EVENT_KINDS` names the vocabulary.

Cost discipline: the log is consulted once per *query*, never per
value, behind the same single-predicate gate the tracer uses
(``session.qlog is not None``); ``benchmarks/bench_trace.py`` gates
the qlog-off drive overhead at <5% on the P3 workload.

Both evaluation engines produce identical lifecycle sequences for the
same query — :func:`drive_logged` brackets an engine-agnostic drive
with the full lifecycle, and the parity property tests in
``tests/property/test_engines.py`` diff the resulting records.
"""

from __future__ import annotations

import time
from time import perf_counter_ns
from typing import Optional

from repro.core import nodes as N
from repro.core.errors import DuelCancelled, DuelError, DuelTruncation
from repro.obs.jsonl import JsonlFile

#: Every terminal lifecycle event (exactly one per query).
TERMINAL_EVENTS = frozenset(
    {"drained", "truncated", "cancelled", "faulted", "rejected"})

#: Connection/server lifecycle record kinds (``ev: "server"``).
SERVER_EVENT_KINDS = frozenset(
    {"reaped", "hard_cancel", "worker_lost", "breaker_open",
     "breaker_closed", "session_parked", "session_resumed",
     "session_expired", "drain_begin", "drain_fast",
     "checkpoint", "recover_begin", "recover_done", "journal_torn",
     "slow_query"})

#: Stats keys copied onto terminal records (insertion order kept).
_STAT_FIELDS = ("steps", "lines", "reads", "writes", "calls", "allocs")


class QueryLog:
    """Append-only JSONL sink for query lifecycle records.

    Accepts a path or any writable text stream (see
    :class:`~repro.obs.jsonl.JsonlFile`).  Query IDs are assigned
    monotonically by :meth:`begin` and never reused within one log.
    ``clock`` is the wall-clock source for the ``ts`` field (override
    for deterministic tests).

    Safe to share between sessions on different threads (the
    ``repro.serve`` front end funnels every client into one log): qid
    allocation and the ``received`` write are one atomic step under a
    single lock, so qids are globally monotone *and* appear in the
    file in qid order; every record is written whole — concurrent
    queries interleave at record granularity, never mid-line.

    ``fsync=True`` additionally fsyncs the file on every flush point
    (terminal and server records): flushed records always survive a
    SIGKILL of this process, but only synced records survive losing
    the machine — and a log used as the ground truth of an
    exactly-once audit across crashes should opt in.
    """

    def __init__(self, stream_or_path, clock=time.time,
                 fsync: bool = False):
        self._file = JsonlFile(stream_or_path, fsync=fsync)
        self._clock = clock
        self._next_qid = 1

    @property
    def records(self) -> int:
        """Records written so far (all kinds)."""
        return self._file.lines

    # -- lifecycle events --------------------------------------------------
    def begin(self, text: str, engine: str = "generator") -> int:
        """Assign the next query ID and log the ``received`` event.

        Allocation and write share one critical section: if they were
        separate lock acquisitions, two threads could allocate qids 7
        and 8 and then write 8's record first, breaking the "file is
        sorted by arrival" property downstream analyzers lean on.
        """
        with self._file.lock:
            qid = self._next_qid
            self._next_qid = qid + 1
            self._file.write_locked({"ev": "received", "qid": qid,
                                     "ts": self._clock(), "text": text,
                                     "engine": engine}, flush=False)
        return qid

    def parsed(self, qid: int, parse_ms: float, node) -> None:
        """The query compiled; ``node`` is the AST root (or a count)."""
        nodes = node if isinstance(node, int) \
            else sum(1 for _ in N.walk(node))
        self._file.write({"ev": "parsed", "qid": qid, "ts": self._clock(),
                          "parse_ms": round(parse_ms, 3), "nodes": nodes},
                         flush=False)

    def end(self, qid: int, outcome: str, *, values: int = 0,
            kind: Optional[str] = None, error=None,
            stats: Optional[dict] = None,
            phases: Optional[dict] = None,
            fingerprint: Optional[str] = None,
            trace_id: Optional[str] = None,
            access: Optional[dict] = None) -> None:
        """The query's terminal record (flushed immediately).

        ``fingerprint`` is the statement fingerprint hash
        (:mod:`repro.obs.fingerprint`) and ``trace_id`` the wire trace
        id (:mod:`repro.obs.reqtrace`) — both optional so in-process
        sessions without the serve layer keep their record shape.
        ``access`` is the compact memory-locality summary
        (:func:`repro.obs.access.compact_profile`) for queries that
        ran with the access tracer sampled on.
        """
        if outcome not in TERMINAL_EVENTS:
            raise ValueError(f"unknown terminal outcome {outcome!r} "
                             f"(know: {', '.join(sorted(TERMINAL_EVENTS))})")
        record: dict = {"ev": outcome, "qid": qid, "ts": self._clock(),
                        "values": values}
        if kind is not None:
            record["kind"] = kind
        if fingerprint is not None:
            record["fingerprint"] = fingerprint
        if trace_id is not None:
            record["trace_id"] = trace_id
        if error is not None:
            record["error"] = str(error)
            record["error_type"] = type(error).__name__
        if stats:
            for name in _STAT_FIELDS:
                if name in stats:
                    record[name] = stats[name]
            if "wall_ms" in stats:
                record["wall_ms"] = round(stats["wall_ms"], 3)
        if phases:
            record["phases"] = {name: round(ms, 3)
                                for name, ms in phases.items()}
        if access:
            record["access"] = dict(access)
        self._file.write(record)

    def observe(self, record) -> None:
        """Write a finished query's terminal record (a session sink;
        ``record`` is a :class:`~repro.core.session.QueryRecord`)."""
        fp = record.fingerprint
        access = record.access
        if access is not None:
            from repro.obs.access import compact_profile
            access = compact_profile(access)
        self.end(record.qid, record.outcome, values=record.values,
                 kind=record.kind,
                 error=record.error if record.outcome in
                 ("faulted", "rejected") else None,
                 stats=record.stats, phases=record.phases,
                 fingerprint=fp.hash if fp is not None else None,
                 trace_id=record.trace_id, access=access)

    def server_event(self, kind: str, **fields) -> None:
        """A qid-less server lifecycle record (flushed immediately).

        ``kind`` must come from :data:`SERVER_EVENT_KINDS` so the
        vocabulary stays closed and greppable; extra ``fields`` are
        copied onto the record (client ids, reasons, counts).
        """
        if kind not in SERVER_EVENT_KINDS:
            raise ValueError(
                f"unknown server event kind {kind!r} "
                f"(know: {', '.join(sorted(SERVER_EVENT_KINDS))})")
        record = {"ev": "server", "kind": kind, "ts": self._clock()}
        record.update(fields)
        self._file.write(record)

    def close(self) -> None:
        """Flush, and close the stream if this log opened it."""
        self._file.close()


def classify(failure) -> tuple[str, Optional[str]]:
    """Map a drive exception (or None) to ``(outcome, verdict kind)``.

    The single classification point shared by the session drive and
    :func:`drive_logged`, so every producer of terminal records agrees
    on what ``truncated`` vs ``cancelled`` vs ``faulted`` means.
    """
    if failure is None:
        return "drained", None
    if isinstance(failure, DuelCancelled):
        return "cancelled", failure.kind
    if isinstance(failure, DuelTruncation):
        return "truncated", failure.kind
    return "faulted", getattr(failure, "kind", None)


def drive_logged(qlog: QueryLog, session, text: str, drive,
                 engine: str = "generator") -> tuple[str, int]:
    """Drive one query under full lifecycle logging, engine-agnostic.

    ``drive(node)`` must return an iterator of values and charge the
    session's governor as the engines do; pass
    ``session.evaluator.eval`` for the generator engine or
    ``StateMachineEvaluator.iter_drive`` for the paper's state
    machine.  Returns ``(outcome, values produced)``.  This is the
    parity harness: for the same query both engines must leave
    byte-identical records modulo timings.
    """
    governor = session.governor
    governor.begin_query()
    qid = qlog.begin(text, engine)
    t0 = perf_counter_ns()
    try:
        node = session.prepare(text).node
    except DuelError as error:
        governor.end_query()
        qlog.end(qid, "rejected", error=error)
        return "rejected", 0
    qlog.parsed(qid, (perf_counter_ns() - t0) / 1e6, node)
    backend = session.evaluator.backend
    reads0, writes0 = backend.reads, backend.writes
    calls0, allocs0 = backend.calls, backend.allocs
    session.evaluator.reset()
    values = 0
    failure = None
    try:
        for _ in drive(node):
            values += 1
    except DuelError as error:
        failure = error
    finally:
        governor.end_query()
    outcome, kind = classify(failure)
    stats = governor.stats()
    stats["reads"] = backend.reads - reads0
    stats["writes"] = backend.writes - writes0
    stats["calls"] = backend.calls - calls0
    stats["allocs"] = backend.allocs - allocs0
    qlog.end(qid, outcome, values=values, kind=kind,
             error=failure if outcome == "faulted" else None, stats=stats)
    return outcome, values
