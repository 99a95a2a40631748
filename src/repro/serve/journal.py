"""Crash-only durability: the write-ahead session journal + checkpoints.

PR 6 made the service survive a hostile *network*; this module makes
it survive its own death.  The design is the classical WAL +
checkpoint pair, sized for a debugging service:

**The journal** is an append-only sequence of CRC32-framed records in
segment files under ``<state-dir>/journal/``.  Every record that
matters for recovery is appended *before* the action it describes is
acknowledged to any client:

``sess_open``
    a session was created (resume key, connection id, limits);
``sess_limit`` / ``sess_alias``
    a governor limit was set / a query bound aliases (one record per
    query, each value a pickled :class:`~repro.core.values.DuelValue`);
``idem``
    a completed idempotency-cache entry (token plus the cached
    terminal result) of a query that committed no write, so a query
    retried *across a server restart* is still answered from the
    cache, never executed twice;
``sess_park`` / ``sess_resume`` / ``sess_close``
    lifecycle transitions (``sess_close`` is the tombstone: closed
    and expired sessions are not resurrected);
``write``
    one *committed* side-effecting query's target
    :func:`~repro.target.snapshot.delta`, the aliases it bound and,
    for an idempotent query, its token and cached result (no ``idem``
    record follows), appended while the target write lock is still
    held, so journal order is exactly target apply order (``text`` is
    a label only).

Each record is framed ``<u32 length><u32 crc32(payload)><payload>``
with a JSON payload carrying its monotone ``lsn``.  Appends always
flush to the OS (a SIGKILL loses nothing that was flushed); how often
they reach the *disk* is the fsync policy — ``always`` (fsync per
append), ``interval:N`` (at most one fsync per N seconds, the
default), or ``off`` (page cache only — survives SIGKILL, not power
loss).

**Torn tails are normal.**  A crash can land between the buffered
write and the page cache, leaving a half-written final record.
:meth:`Journal.open` scans the last segment, truncates at the first
bad frame, and carries on appending — a torn tail is recovered from,
never a refusal to start.

**Checkpoints** bound replay.  The server's checkpointer periodically
freezes the target (under the same writer-preferring RW lock queries
use), serializes a :class:`~repro.target.snapshot.Snapshot` plus the
session table, writes it atomically (temp + fsync + rename) under
``<state-dir>/checkpoint/``, and deletes journal segments the
checkpoint made redundant.  Recovery is then: load the newest valid
checkpoint, fold journal records with ``lsn`` beyond it into the
session table, and apply the ``write`` records' deltas to the target
in lsn order — no query runs.

The segment/rotation discipline makes truncation safe: the journal
is rotated *inside* the checkpoint freeze, so every record a new
checkpoint does not cover lives in segments the truncation keeps.
Session records may be covered by both a checkpoint and the surviving
segments; their application is idempotent.  ``write`` records cannot
be (writes run under the same lock the freeze holds), which is what
makes re-applying them exactly-once.

**Format 2** (:data:`FORMAT`) journals effects and values.  Format 1
journaled query texts; a state dir in it is refused with a
:class:`JournalError` that names the format.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import struct
import threading
import time
import zlib
from typing import Callable, Iterator, Optional

#: Record framing: little-endian payload length + CRC32 of the payload.
_FRAME = struct.Struct("<II")

#: Journal record kinds (closed vocabulary, validated on append).
RECORD_KINDS = frozenset(
    {"sess_open", "sess_limit", "sess_alias", "idem",
     "sess_park", "sess_resume", "sess_close", "write"})

#: Default segment rotation threshold, bytes.
SEGMENT_BYTES = 4 << 20

#: The state-dir format; a checkpoint file begins ``DUELCKPT<format>``.
FORMAT = 2
CHECKPOINT_MAGIC = b"DUELCKPT%d\n" % FORMAT


class JournalError(Exception):
    """The journal directory is unusable (I/O or layout trouble)."""


def _older_format(what: str, found: str) -> JournalError:
    return JournalError(f"{what} is in state-dir format {found}; this "
                        f"build reads only format {FORMAT}: move the "
                        "state dir aside to start fresh")


def pack(value) -> str:
    """``value`` as a record field: base64 of its pickle."""
    return base64.b64encode(
        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)).decode("ascii")


def unpack(text: str):
    """The value :func:`pack` encoded (:class:`JournalError` if none)."""
    try:
        return pickle.loads(base64.b64decode(text))
    except (ValueError, EOFError, AttributeError, ImportError,
            pickle.UnpicklingError) as error:
        raise JournalError(f"unreadable journal value: {error}") from error


class FsyncPolicy:
    """Parsed ``always`` / ``interval:N`` / ``off`` fsync policy.

    ``due(now)`` answers whether an append should fsync; ``note(now)``
    records that one happened.  ``interval:N`` fsyncs at most once per
    ``N`` seconds *on the append path* (plus always on rotation and
    close), trading a bounded window of power-loss exposure for near
    zero steady-state cost.  A SIGKILL — the crash-only serving
    threat model — never loses flushed-but-unsynced data; only losing
    the whole machine does.
    """

    def __init__(self, mode: str, interval: float = 0.0):
        self.mode = mode
        self.interval = interval

    @classmethod
    def parse(cls, spec: str) -> "FsyncPolicy":
        text = (spec or "off").strip().lower()
        if text == "always":
            return cls("always")
        if text == "off":
            return cls("off")
        if text.startswith("interval:"):
            try:
                interval = float(text.split(":", 1)[1])
            except ValueError:
                raise ValueError(
                    f"bad fsync interval in {spec!r}") from None
            if interval <= 0:
                raise ValueError("fsync interval must be positive")
            return cls("interval", interval)
        raise ValueError(f"unknown fsync policy {spec!r} "
                         "(know: always, interval:N, off)")

    def due(self, now: float, last_sync: float) -> bool:
        if self.mode == "always":
            return True
        if self.mode == "off":
            return False
        return now - last_sync >= self.interval

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.mode == "interval":
            return f"<fsync interval:{self.interval}>"
        return f"<fsync {self.mode}>"


def _frame(payload: bytes) -> bytes:
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def _scan_segment(path: str) -> tuple[list[tuple[int, dict]], int, bool]:
    """All valid records of one segment file.

    Returns ``(records, good_bytes, torn)`` where ``records`` is a
    list of ``(lsn, record)``, ``good_bytes`` is the offset of the
    first bad (or missing) frame, and ``torn`` flags whether trailing
    bytes past that offset had to be disregarded.  Every failure mode
    — short header, short payload, CRC mismatch, unparseable JSON —
    is treated as the torn tail, not an error: the journal's contract
    is *truncate and carry on*.
    """
    records: list[tuple[int, dict]] = []
    offset = 0
    with open(path, "rb") as handle:
        data = handle.read()
    total = len(data)
    while offset + _FRAME.size <= total:
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        end = start + length
        if end > total:
            break                      # short payload: torn tail
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            break                      # corrupt frame: torn tail
        try:
            record = json.loads(payload)
            lsn = record["lsn"]
        except (ValueError, KeyError, TypeError):
            break                      # unparseable: torn tail
        records.append((lsn, record))
        offset = end
    return records, offset, offset != total


class Journal:
    """Append-only, CRC32-framed, segment-rotating write-ahead log.

    Thread-safe: appends from connection threads, query workers and
    the checkpointer interleave at record granularity under one lock,
    and the assigned ``lsn``\\ s are globally monotone and in file
    order.  :meth:`poison` makes every further append a silent no-op
    — the in-process stand-in for the process dying, used by the
    chaos harness's simulated crashes so an abandoned server can
    never scribble on a directory its replacement has taken over.
    """

    def __init__(self, directory: str, *,
                 fsync: str = "interval:1.0",
                 segment_bytes: int = SEGMENT_BYTES,
                 sync_hook: Optional[Callable[[], None]] = None):
        self.directory = directory
        self.policy = FsyncPolicy.parse(fsync) \
            if isinstance(fsync, str) else fsync
        self.segment_bytes = segment_bytes
        #: Chaos hook: runs after the buffered write, before fsync —
        #: the "killed between append and fsync" crash point.
        self._sync_hook = sync_hook
        self._lock = threading.Lock()
        self._stream = None
        self._segment_seq = 0
        self._segment_size = 0
        self._last_sync = 0.0
        self._poisoned = False
        self._lsn = 0
        #: Lifetime counters.
        self.appended = 0
        self.fsyncs = 0
        self.rotations = 0
        #: True when opening found (and truncated) a torn tail.
        self.recovered_torn_tail = False
        self._open()

    # -- layout --------------------------------------------------------------
    def _segment_path(self, seq: int) -> str:
        return os.path.join(self.directory, f"wal-{seq:08d}.log")

    def segments(self) -> list[tuple[int, str]]:
        """``(sequence, path)`` of every segment file, ordered."""
        found = []
        try:
            names = os.listdir(self.directory)
        except FileNotFoundError:
            return []
        for name in names:
            if name.startswith("wal-") and name.endswith(".log"):
                try:
                    seq = int(name[4:-4])
                except ValueError:
                    continue
                found.append((seq, os.path.join(self.directory, name)))
        return sorted(found)

    def _open(self) -> None:
        os.makedirs(self.directory, exist_ok=True)
        segments = self.segments()
        if not segments:
            self._segment_seq = 1
            self._stream = open(self._segment_path(1), "ab")
            self._segment_size = 0
            return
        # Resume appending to the newest segment: find its last good
        # offset (and lsn), truncate any torn tail, carry on.
        for _, path in segments[:-1]:
            records, _, _ = _scan_segment(path)
            if records:
                self._lsn = max(self._lsn, records[-1][0])
        last_seq, last_path = segments[-1]
        records, good, torn = _scan_segment(last_path)
        if records:
            self._lsn = max(self._lsn, records[-1][0])
        if torn:
            self.recovered_torn_tail = True
            with open(last_path, "r+b") as handle:
                handle.truncate(good)
        self._segment_seq = last_seq
        self._stream = open(last_path, "ab")
        self._segment_size = good

    # -- appending -----------------------------------------------------------
    @property
    def lsn(self) -> int:
        """The last assigned log sequence number (0 when empty)."""
        with self._lock:
            return self._lsn

    def append(self, kind: str, **fields) -> int:
        """Append one record; returns its lsn (0 when poisoned).

        The payload is flushed to the OS before returning; whether it
        is fsynced to disk too is the policy's call.  Unknown kinds
        are a programming error and raise.
        """
        if kind not in RECORD_KINDS:
            raise ValueError(f"unknown journal record kind {kind!r} "
                             f"(know: {', '.join(sorted(RECORD_KINDS))})")
        with self._lock:
            if self._poisoned or self._stream is None:
                return 0
            self._lsn += 1
            record = {"k": kind, "lsn": self._lsn}
            record.update(fields)
            data = _frame(json.dumps(record,
                                     separators=(",", ":")).encode("utf-8"))
            self._stream.write(data)
            self._stream.flush()
            self.appended += 1
            self._segment_size += len(data)
            if self._sync_hook is not None:
                self._sync_hook()
            now = time.monotonic()
            if self.policy.due(now, self._last_sync):
                self._fsync_locked(now)
            if self._segment_size >= self.segment_bytes:
                self._rotate_locked()
            return self._lsn

    def _fsync_locked(self, now: Optional[float] = None) -> None:
        try:
            os.fsync(self._stream.fileno())
        except (OSError, ValueError):      # pragma: no cover - exotic fs
            pass
        self.fsyncs += 1
        self._last_sync = now if now is not None else time.monotonic()

    def _rotate_locked(self) -> None:
        self._fsync_locked()
        self._stream.close()
        self._segment_seq += 1
        self._stream = open(self._segment_path(self._segment_seq), "ab")
        self._segment_size = 0
        self.rotations += 1

    def rotate(self) -> int:
        """Seal the active segment, open a fresh one; returns the lsn.

        The checkpointer calls this *inside* its freeze: every record
        up to the returned lsn lives in sealed segments (candidates
        for truncation once the checkpoint lands); everything after
        goes to the new segment, which truncation never touches.
        """
        with self._lock:
            if self._stream is None or self._poisoned:
                return self._lsn
            self._rotate_locked()
            return self._lsn

    def truncate_sealed(self) -> int:
        """Delete every sealed (non-active) segment; returns how many.

        Only call after a checkpoint covering their records has been
        durably written — that is the whole crash-safety argument.
        """
        with self._lock:
            active = self._segment_seq
        removed = 0
        for seq, path in self.segments():
            if seq >= active:
                continue
            try:
                os.unlink(path)
                removed += 1
            except OSError:                # pragma: no cover - defensive
                pass
        return removed

    # -- reading -------------------------------------------------------------
    def replay(self, after_lsn: int = 0) -> Iterator[tuple[int, dict]]:
        """Yield ``(lsn, record)`` with ``lsn > after_lsn``, in order.

        Reads the segment files directly (safe before serving starts
        or from tests; concurrent appends may or may not be seen).
        Torn tails and corrupt frames end the affected segment's
        stream silently — recovery's contract is "everything up to
        the first bad byte", never a refusal.
        """
        for _, path in self.segments():
            records, _, torn = _scan_segment(path)
            for lsn, record in records:
                if lsn > after_lsn:
                    yield lsn, record
            if torn:
                return        # nothing after a torn tail is trustworthy

    def poison(self) -> None:
        """Make all further appends silent no-ops (simulated crash)."""
        with self._lock:
            self._poisoned = True
            if self._stream is not None:
                try:
                    self._stream.close()
                except OSError:            # pragma: no cover - defensive
                    pass
                self._stream = None

    def close(self) -> None:
        """Flush, fsync and close the active segment."""
        with self._lock:
            if self._stream is None or self._poisoned:
                return
            self._stream.flush()
            self._fsync_locked()
            self._stream.close()
            self._stream = None


# -- the state directory ----------------------------------------------------
class StateStore:
    """Owns a ``--state-dir``: journal segments + checkpoint files.

    Layout (see ``docs/STATE_DIR.md``)::

        <state-dir>/
          journal/wal-00000001.log ...     append-only WAL segments
          checkpoint/ckpt-<lsn>.snap       atomic checkpoint files

    Checkpoints are written temp-file + fsync + rename, so a crash
    mid-checkpoint leaves the previous one intact; older checkpoints
    are pruned only after the new one is durably in place.
    """

    def __init__(self, state_dir: str, *, fsync: str = "interval:1.0",
                 segment_bytes: int = SEGMENT_BYTES,
                 sync_hook: Optional[Callable[[], None]] = None):
        self.state_dir = state_dir
        self.checkpoint_dir = os.path.join(state_dir, "checkpoint")
        try:
            os.makedirs(self.checkpoint_dir, exist_ok=True)
            self.journal = Journal(os.path.join(state_dir, "journal"),
                                   fsync=fsync,
                                   segment_bytes=segment_bytes,
                                   sync_hook=sync_hook)
        except OSError as error:
            raise JournalError(
                f"state dir {state_dir!r} unusable: {error}") from error

    # -- checkpoints ---------------------------------------------------------
    def checkpoint_files(self) -> list[tuple[int, str]]:
        """``(lsn, path)`` of every checkpoint file, oldest first."""
        found = []
        try:
            names = os.listdir(self.checkpoint_dir)
        except FileNotFoundError:
            return []
        for name in names:
            if name.startswith("ckpt-") and name.endswith(".snap"):
                try:
                    lsn = int(name[5:-5])
                except ValueError:
                    continue
                found.append((lsn, os.path.join(self.checkpoint_dir, name)))
        return sorted(found)

    def write_checkpoint(self, lsn: int, payload: dict) -> str:
        """Durably write one checkpoint blob; returns its path.

        ``payload`` is pickled (it carries a serialized target
        snapshot and the session table), CRC-framed like a journal
        record, written to a temp file, fsynced, renamed into place —
        and only then are older checkpoints pruned and sealed journal
        segments dropped by the caller.
        """
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        data = CHECKPOINT_MAGIC + _frame(body)
        path = os.path.join(self.checkpoint_dir, f"ckpt-{lsn:012d}.snap")
        temp = path + ".tmp"
        with open(temp, "wb") as handle:
            handle.write(data)
            handle.flush()
            try:
                os.fsync(handle.fileno())
            except OSError:                # pragma: no cover - exotic fs
                pass
        os.replace(temp, path)
        self._fsync_dir(self.checkpoint_dir)
        for old_lsn, old_path in self.checkpoint_files():
            if old_path != path:
                try:
                    os.unlink(old_path)
                except OSError:            # pragma: no cover - defensive
                    pass
        return path

    def load_checkpoint(self) -> Optional[tuple[int, dict]]:
        """The newest *valid* checkpoint as ``(lsn, payload)``.

        Tries newest first and falls back on any corruption (bad
        magic, bad CRC, unpicklable body) — a half-written or damaged
        checkpoint is skipped, never fatal.  A checkpoint of another
        format is not damage: it raises :class:`JournalError`.
        """
        for lsn, path in reversed(self.checkpoint_files()):
            try:
                with open(path, "rb") as handle:
                    data = handle.read()
                if not data.startswith(CHECKPOINT_MAGIC):
                    if data.startswith(b"DUELCKPT"):
                        found = data[8:data.find(b"\n", 8)]
                        raise _older_format(
                            f"checkpoint {path}",
                            found.decode("ascii", "replace"))
                    continue
                framed = data[len(CHECKPOINT_MAGIC):]
                length, crc = _FRAME.unpack_from(framed, 0)
                body = framed[_FRAME.size:_FRAME.size + length]
                if len(body) != length or zlib.crc32(body) != crc:
                    continue
                payload = pickle.loads(body)
                if payload.get("lsn") != lsn:
                    continue
                return lsn, payload
            except (OSError, ValueError, KeyError, struct.error,
                    pickle.UnpicklingError, EOFError, AttributeError):
                continue
        return None

    @staticmethod
    def _fsync_dir(path: str) -> None:
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:                    # pragma: no cover - e.g. win32
            return
        try:
            os.fsync(fd)
        except OSError:                    # pragma: no cover - exotic fs
            pass
        finally:
            os.close(fd)

    def close(self) -> None:
        self.journal.close()


# -- recovery folding -------------------------------------------------------
def fold_sessions(state: dict, records) -> tuple[dict, list[dict]]:
    """Fold journal records into a session table + ordered write list.

    ``state`` maps resume key -> session-state dict (``key``,
    ``client_id``, ``limits``, ``aliases`` mapping names to values,
    ``idem``) — typically the table a checkpoint restored, empty on
    cold start.  Returns the updated table and the ``write`` records
    in lsn order.  Pure and idempotent for session records (a record
    covered by both the checkpoint and a surviving segment applies
    cleanly twice), which is exactly the property the
    rotation-inside-freeze discipline needs.  ``sess_close`` drops
    the entry (its writes are target state, carried by their deltas);
    a format-1 record raises :class:`JournalError`.
    """
    writes: list[dict] = []
    for lsn, record in records:
        kind, key = record.get("k"), record.get("key")
        if kind in ("write", "sess_alias") and "delta" not in record \
                and "aliases" not in record:
            raise _older_format(f"journal record lsn {lsn} ({kind})", "1")
        if kind == "write":
            writes.append(record)
        if kind == "sess_open" and key is not None:
            state.setdefault(key, {"key": key, "client_id": None,
                                   "limits": {}, "aliases": {}, "idem": {}})
        entry = state.get(key)
        if entry is None:
            continue
        if kind in ("sess_open", "sess_resume"):
            entry["client_id"] = record.get("client", entry["client_id"])
        if kind == "sess_open" and isinstance(record.get("limits"), dict):
            entry["limits"].update(record["limits"])
        elif kind == "sess_limit":
            entry["limits"][record.get("name")] = record.get("value")
        elif kind in ("idem", "write") \
                and isinstance(record.get("result"), dict):
            entry["idem"][record.get("token")] = record["result"]
        elif kind == "sess_close":
            del state[key]
        if "aliases" in record:
            entry["aliases"].update(unpack(record["aliases"]))
        # sess_park carries no state delta: parked sessions are
        # resurrected exactly like active ones (the crash disconnected
        # everybody, so *every* surviving session comes back parked).
    return state, writes
