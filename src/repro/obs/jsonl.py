"""The one JSONL file writer under every observability log.

The query log, the request-trace log, the access-profile log and the
``--trace-json`` event sink each append JSON objects, one per line, to
a file they may share between threads.  :class:`JsonlFile` is that
file: it opens a path (``str`` or :class:`os.PathLike`, owned and
closed by :meth:`close`) or borrows any writable text stream (left
open), writes each batch of records whole under one lock, so
concurrent writers interleave at line granularity, and flushes —
fsyncing too when asked, so a record survives losing the machine, not
just the process.
"""

from __future__ import annotations

import json
import os
import threading


class JsonlFile:
    """Append-only JSON-lines output: path or stream, whole lines."""

    def __init__(self, stream_or_path, fsync: bool = False):
        self._owns = isinstance(stream_or_path, (str, os.PathLike))
        self._stream = open(stream_or_path, "w") if self._owns \
            else stream_or_path
        self._fsync = fsync
        #: Held while writing; a caller that must make another step
        #: atomic with a write (the query log's qid allocation) takes
        #: it and calls :meth:`write_locked`.
        self.lock = threading.Lock()
        #: Records written so far.
        self.lines = 0

    def write(self, *records: dict, flush: bool = True) -> None:
        """Append ``records`` (whole, under the lock); flush after."""
        with self.lock:
            self.write_locked(*records, flush=flush)

    def write_locked(self, *records: dict, flush: bool = True) -> None:
        """:meth:`write` for a caller already holding :attr:`lock`."""
        stream = self._stream
        for record in records:
            stream.write(json.dumps(record) + "\n")
        self.lines += len(records)
        if flush:
            self._flush_locked()

    def _flush_locked(self) -> None:
        self._stream.flush()
        if self._fsync:
            try:
                os.fsync(self._stream.fileno())
            except (OSError, ValueError, AttributeError):
                pass               # in-memory streams have no fileno

    def flush(self) -> None:
        with self.lock:
            self._flush_locked()

    def close(self) -> None:
        """Flush, and close the stream if this file opened it."""
        with self.lock:
            self._flush_locked()
            if self._owns:
                self._stream.close()
