"""The DUEL query service wire protocol: versioned JSONL over TCP.

Hanson's sequel to the paper (*A Machine-Independent Debugger —
Revisited*, MSR-TR-99-4) splits the debugger into a client speaking a
small wire protocol to a "nub" owning the target.  ``repro.serve``
makes the same cut one level up: the server owns the target program
and the per-client :class:`~repro.core.session.DuelSession`\\ s, and
clients speak this protocol — one JSON object per ``\\n``-terminated
line, both directions, UTF-8.

Client → server frames (``op`` selects the operation; every frame
except ``hello``/``bye`` carries a client-chosen ``id`` echoed on all
responses):

``{"op": "hello", "version": 1, "client": "ana"}``
    must be the first frame; negotiates the protocol version;
``{"op": "duel", "id": N, "text": "x[..100] >? 0"}``
    evaluate one DUEL query (the ``duel`` command over the wire);
``{"op": "alias", "id": N}``
    list this client's debugger aliases (``x := ...``);
``{"op": "limits", "id": N[, "name": "steps", "value": 20000]}``
    show — or, with ``name``/``value``, set — this client's governor
    limits (``value: null`` disables one);
``{"op": "stats", "id": N}``
    last-query stats plus server admission counters;
``{"op": "cancel", "id": N, "target": M}``
    trip the cancel token of this client's in-flight query ``M``;
``{"op": "ping", "id": N}`` / ``{"op": "pong", "seq": K}``
    client-initiated liveness probe (answered ``pong``) and the
    answer to a server-initiated ``ping`` (heartbeats — see below);
``{"op": "bye"}``
    close the conversation (the server answers ``bye`` and hangs up).

Fault-tolerance fields (all optional, all version 1):

* ``hello`` may carry ``"resume": "<key>"`` — the resume key of a
  previous conversation; if the server still holds that session
  (bounded parking window), the reconnect re-attaches it, aliases,
  limits and idempotency cache intact, and ``welcome`` says
  ``"resumed": true``;
* ``duel`` may carry ``"idem": "<token>"`` — a client-chosen
  idempotency token.  A retried ``duel`` with a token the session has
  already completed is *not* re-executed: the cached terminal result
  is replayed (``"replayed": true`` on the terminal frame), so a
  retry after an ambiguous disconnect can never apply a
  side-effecting query twice.

Observability fields and ops (all optional, all version 1):

* ``duel`` may carry ``"trace": "<id>"`` — a client-generated trace
  id (printable, ≤ :data:`TRACE_ID_MAX` chars).  The server assigns
  one when absent and echoes the id as ``"trace"`` on **every** frame
  it sends for that request (values, terminal, rejections), so a
  client can correlate its latency with the server's exported span
  tree (:mod:`repro.obs.reqtrace`);
* ``duel`` may carry ``"profile": true`` — run the query traced and
  embed the full client-to-target profile (server phase spans plus
  engine per-AST-node spans) as ``"profile"`` on the terminal frame —
  ``explain`` over the wire;
* ``{"op": "statements", "id": N[, "by": "total_ms", "limit": 10]}``
    the statement-statistics table: top query shapes by latency or
    call count (``{"ev": "statements", "id": N, "rows": [...]}``);
* ``{"op": "health", "id": N}``
    per-subsystem health detail — breaker window, journal position,
    session counts, watchdog age, slow-query tail (``{"ev":
    "health", "id": N, ...}``);
* ``{"op": "accesses", "id": N, "text": "x[..100] >? 0"}``
    evaluate one query with the memory-access tracer forced on and
    return its locality profile instead of its values: the query runs
    under full admission control like ``duel`` but value frames are
    suppressed; the single terminal frame is ``{"ev": "accesses",
    "id": N, "outcome": ..., "values": ..., "profile": {...},
    "advisor": [...]}`` (:mod:`repro.obs.access`) — or the usual
    ``rejected``/``error`` frame when the query never ran.

Server → client frames (``ev`` tags the event):

``{"ev": "welcome", "version": 1, "server": ..., "client": ...}``
    the ``hello`` reply;
``{"ev": "value", "id": N, "lines": [...]}``
    a batch of output lines of query ``N``, streamed in production
    order (batched — ``CHUNK`` lines per frame — so a P3-sized result
    does not pay one syscall per value);
``{"ev": "done" | "truncated" | "cancelled" | "faulted" | "error",
"id": N, "values": ..., ...}``
    exactly one terminal frame per accepted query, mirroring the
    query log's verdicts (``done`` = drained; ``truncated`` /
    ``cancelled`` carry the paper-style ``diagnostic`` line and
    governor verdict ``kind``; ``faulted`` / ``error`` carry the
    error text);
``{"ev": "rejected", "id": N, "reason": "overloaded" | "busy" | ...}``
    admission control refused the query — explicit backpressure, the
    query never ran;
``{"ev": "alias" | "limits" | "stats", "id": N, ...}``
    control-operation replies;
``{"ev": "pong", "id": N}`` / ``{"ev": "ping", "seq": K}``
    the ``ping`` reply, and the server's heartbeat probe (clients
    answer ``{"op": "pong", "seq": K}``; *any* inbound frame counts
    as proof of life, so a pong racing a query frame is fine);
``{"ev": "bye"}``
    goodbye (also sent unsolicited when the server drains for
    shutdown, with a ``reason``).

Framing discipline: a frame is one line, at most :data:`MAX_FRAME`
bytes.  The server reads through
:func:`read_frames_budgeted`: each malformed line is answered with a
structured ``error`` frame carrying the running ``malformed`` count
and the connection's ``budget``; past the budget (or on an
unrecoverable framing violation — an unterminated oversized line that
cannot be resynchronized) the connection is dropped.  A misbehaving
client can never wedge a worker, and a *briefly* garbled one (a proxy
hiccup, a truncated retry) gets a diagnosis instead of a hangup.
"""

from __future__ import annotations

import json
from typing import Optional

#: Protocol version spoken by this module (bump on breaking changes).
PROTOCOL_VERSION = 1

#: Hard cap on one frame's encoded size, bytes (1 MiB).
MAX_FRAME = 1 << 20

#: Output lines batched per ``value`` frame.
CHUNK = 64

#: Byte budget per ``value`` frame (flush early when lines are fat).
CHUNK_BYTES = 256 << 10

#: Largest single output line shipped intact; longer ones are clipped
#: (a cancelled constants-only runaway can join megabytes into one
#: display line — the wire stays bounded regardless).
MAX_LINE = MAX_FRAME - 4096

#: Every client→server operation.
REQUEST_OPS = frozenset(
    {"hello", "duel", "alias", "limits", "stats", "cancel",
     "ping", "pong", "bye", "statements", "health", "accesses"})

#: Terminal events of a ``duel`` request (exactly one per query).
TERMINAL_EVENTS = frozenset(
    {"done", "truncated", "cancelled", "faulted", "error", "rejected"})

#: Request ops that must carry an integer ``id``.
_NEEDS_ID = frozenset({"duel", "alias", "limits", "stats", "cancel",
                       "ping", "statements", "health", "accesses"})

#: Longest ``trace`` id accepted on a ``duel`` frame (mirrors
#: :data:`repro.obs.reqtrace.TRACE_ID_MAX`; duplicated so the wire
#: layer stays importable without the obs stack).
TRACE_ID_MAX = 128

#: Snapshot orderings the ``statements`` op accepts (mirrors
#: :data:`repro.obs.statements.ORDERINGS`).
STATEMENT_ORDERINGS = ("total_ms", "calls", "mean_ms", "max_ms",
                       "reads", "reads_per_value")

#: Malformed frames tolerated per connection before hanging up.
MALFORMED_BUDGET = 3

#: Bytes skipped while resynchronizing past an oversized line before
#: the connection is declared unrecoverable (a peer streaming an
#: endless unterminated line must not pin the reader forever).
MAX_RESYNC = 8 * MAX_FRAME


class ProtocolError(Exception):
    """A frame violated the protocol (bad JSON, shape, or size)."""


class FatalProtocolError(ProtocolError):
    """A framing violation the reader cannot resynchronize past."""


# -- framing ---------------------------------------------------------------
def encode(frame: dict) -> bytes:
    """One frame as a compact JSONL line (UTF-8, size-checked)."""
    data = json.dumps(frame, separators=(",", ":")).encode("utf-8") + b"\n"
    if len(data) > MAX_FRAME:
        raise ProtocolError(f"frame of {len(data)} bytes exceeds the "
                            f"{MAX_FRAME}-byte limit")
    return data


def decode(line: bytes) -> dict:
    """Parse one received line into a frame dict (strictly an object)."""
    if len(line) > MAX_FRAME:
        raise ProtocolError(f"frame of {len(line)} bytes exceeds the "
                            f"{MAX_FRAME}-byte limit")
    try:
        frame = json.loads(line)
    except (ValueError, UnicodeDecodeError) as error:
        raise ProtocolError(f"frame is not JSON: {error}") from error
    if not isinstance(frame, dict):
        raise ProtocolError("frame must be a JSON object")
    return frame


def read_frames(stream):
    """Yield frames from a binary line stream until EOF.

    ``stream`` is anything with ``readline`` (a ``socket.makefile``);
    blank lines are ignored (keep-alive friendly), malformed lines
    raise :class:`ProtocolError` with the offending prefix.
    """
    while True:
        line = stream.readline(MAX_FRAME + 2)
        if not line:
            return
        if line.strip() == b"":
            continue
        if not line.endswith(b"\n") and len(line) > MAX_FRAME:
            raise ProtocolError("unterminated oversized frame")
        yield decode(line)


def read_frames_budgeted(stream):
    """Yield frames *or* :class:`ProtocolError` instances until EOF.

    The lenient reader behind the server's per-connection
    malformed-frame budget: a bad line (broken JSON, a non-object, an
    oversized-but-terminated frame) is yielded as the
    :class:`ProtocolError` describing it and reading continues on the
    next line, so the caller can answer with a structured ``error``
    frame and charge the budget instead of hanging up on the first
    offence.  Only :class:`FatalProtocolError` is *raised*: an
    unterminated oversized line means the byte stream has lost frame
    alignment; the reader skips ahead to the next newline (at most
    :data:`MAX_RESYNC` bytes) to try to resynchronize, and gives up —
    raising — when no newline appears within that budget.

    Note that a yielded error covers only the framing layer; callers
    still run :func:`validate_request` on yielded dicts and may treat
    its failures as budget charges too.
    """
    while True:
        line = stream.readline(MAX_FRAME + 2)
        if not line:
            return
        if line.strip() == b"":
            continue
        if not line.endswith(b"\n") and len(line) > MAX_FRAME:
            # Mid-line: resynchronize to the next newline (bounded).
            skipped = len(line)
            while True:
                chunk = stream.readline(MAX_FRAME + 2)
                if not chunk:
                    return
                skipped += len(chunk)
                if chunk.endswith(b"\n"):
                    break
                if skipped > MAX_RESYNC:
                    raise FatalProtocolError(
                        f"unterminated frame ran past {MAX_RESYNC} "
                        "bytes without a newline")
            yield ProtocolError(
                f"oversized frame ({skipped} bytes > {MAX_FRAME})")
            continue
        try:
            yield decode(line)
        except ProtocolError as error:
            yield error


# -- request validation ----------------------------------------------------
def validate_request(frame: dict) -> str:
    """Check one client frame's shape; returns its ``op``.

    Raises :class:`ProtocolError` on an unknown or malformed request,
    with a message safe to echo back to the client.
    """
    op = frame.get("op")
    if op not in REQUEST_OPS:
        raise ProtocolError(
            f"unknown op {op!r} (know: {', '.join(sorted(REQUEST_OPS))})")
    if op in _NEEDS_ID and not isinstance(frame.get("id"), int):
        raise ProtocolError(f"op {op!r} requires an integer 'id'")
    if op == "duel":
        if not isinstance(frame.get("text"), str):
            raise ProtocolError("op 'duel' requires a string 'text'")
        if "idem" in frame and not isinstance(frame["idem"], str):
            raise ProtocolError("duel 'idem' must be a string")
        if "trace" in frame:
            trace = frame["trace"]
            if not isinstance(trace, str) or not trace \
                    or len(trace) > TRACE_ID_MAX \
                    or not all(33 <= ord(ch) < 127 for ch in trace):
                raise ProtocolError(
                    "duel 'trace' must be a non-empty printable string "
                    f"of at most {TRACE_ID_MAX} characters")
        if "profile" in frame and not isinstance(frame["profile"], bool):
            raise ProtocolError("duel 'profile' must be a boolean")
    if op == "accesses":
        if not isinstance(frame.get("text"), str):
            raise ProtocolError("op 'accesses' requires a string 'text'")
        if "trace" in frame:
            trace = frame["trace"]
            if not isinstance(trace, str) or not trace \
                    or len(trace) > TRACE_ID_MAX \
                    or not all(33 <= ord(ch) < 127 for ch in trace):
                raise ProtocolError(
                    "accesses 'trace' must be a non-empty printable "
                    f"string of at most {TRACE_ID_MAX} characters")
    if op == "statements":
        if "by" in frame and frame["by"] not in STATEMENT_ORDERINGS:
            raise ProtocolError(
                "statements 'by' must be one of "
                + ", ".join(STATEMENT_ORDERINGS))
        if "limit" in frame and (not isinstance(frame["limit"], int)
                                 or frame["limit"] < 1):
            raise ProtocolError(
                "statements 'limit' must be a positive integer")
    if op == "cancel" and not isinstance(frame.get("target"), int):
        raise ProtocolError("op 'cancel' requires an integer 'target'")
    if op == "pong" and not isinstance(frame.get("seq"), int):
        raise ProtocolError("op 'pong' requires an integer 'seq'")
    if op == "hello":
        version = frame.get("version")
        if not isinstance(version, int):
            raise ProtocolError("op 'hello' requires an integer 'version'")
        if "resume" in frame and not isinstance(frame["resume"], str):
            raise ProtocolError("hello 'resume' must be a string")
    if op == "limits" and "name" in frame:
        if not isinstance(frame["name"], str):
            raise ProtocolError("limits 'name' must be a string")
    return op


# -- frame builders --------------------------------------------------------
def hello(client: Optional[str] = None,
          version: int = PROTOCOL_VERSION,
          resume: Optional[str] = None) -> dict:
    frame = {"op": "hello", "version": version}
    if client is not None:
        frame["client"] = client
    if resume is not None:
        frame["resume"] = resume
    return frame


def welcome(client: str, server: str = "duel-serve",
            version: int = PROTOCOL_VERSION, **extra) -> dict:
    frame = {"ev": "welcome", "version": version, "server": server,
             "client": client}
    frame.update(extra)
    return frame


def clip_line(line: str) -> str:
    """``line`` bounded to :data:`MAX_LINE` encoded bytes."""
    data = line.encode("utf-8")
    if len(data) <= MAX_LINE:
        return line
    keep = data[:MAX_LINE // 2].decode("utf-8", "ignore")
    return f"{keep} ... (line clipped: {len(data)} bytes)"


def value_frame(request_id: int, lines: list,
                trace: Optional[str] = None) -> dict:
    frame = {"ev": "value", "id": request_id,
             "lines": [clip_line(line) for line in lines]}
    if trace is not None:
        frame["trace"] = trace
    return frame


def terminal(request_id: int, outcome: str, info: dict) -> dict:
    """A terminal frame from one :meth:`DuelSession.ievents` payload."""
    if outcome not in TERMINAL_EVENTS:
        raise ProtocolError(f"unknown terminal outcome {outcome!r}")
    frame = {"ev": outcome, "id": request_id,
             "values": info.get("values", 0)}
    for key in ("kind", "diagnostic", "error", "error_type", "stats",
                "replayed", "trace", "profile", "fingerprint", "access",
                "advisor"):
        if key in info:
            frame[key] = info[key]
    return frame


def rejected(request_id: int, reason: str, **extra) -> dict:
    frame = {"ev": "rejected", "id": request_id, "reason": reason}
    frame.update(extra)
    return frame
