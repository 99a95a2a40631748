"""Flight recorder: bounded in-memory history + post-mortem dumps.

A long unattended ``duel`` run that dies at 3am used to leave, at
best, a stack trace.  The flight recorder keeps a bounded deque of the
last ``capacity`` completed queries — text, outcome, governor stats,
phase timings, and (because enabling the recorder turns per-query
tracing on) each query's EXPLAIN profile tree and a bounded ring of
its pull/yield events — and, when something goes wrong, writes the
whole window plus a metrics snapshot and the governor limits in force
to one self-contained post-mortem JSON file.

Dump triggers (all of them subject to a ``dump_dir`` being set):

* a target-side fault (:class:`~repro.core.errors.DuelTargetError` or
  :class:`~repro.core.errors.DuelMemoryError`) — the debuggee broke;
* a cooperative cancellation (:class:`~repro.core.errors.DuelCancelled`)
  — someone hit ^C, capture what they were looking at;
* a governor truncation — the workload outgrew its budgets;
* the explicit ``dump`` REPL command.

Plain user errors (typos, name errors, rejected parses) do *not*
dump: they are part of normal interactive use, and auto-dumping them
would bury the interesting post-mortems.

Memory discipline: ``entries`` is a ``deque(maxlen=capacity)``, so
the recorder holds at most ``capacity`` queries no matter how many
run; each entry's event ring is clipped to ``ring_capacity``.  With
the recorder detached (``session.recorder is None``) the cost is one
predicate per query — the same gate the tracer and query log use.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Optional

from repro.core.errors import DuelMemoryError, DuelTargetError

#: Post-mortem schema version (bump on incompatible shape changes).
DUMP_VERSION = 1

#: Terminal outcomes that always trigger an automatic dump.
_AUTODUMP_OUTCOMES = frozenset({"truncated", "cancelled"})


def should_dump(outcome: str, failure=None) -> bool:
    """True when a query's ending warrants an automatic post-mortem."""
    if outcome in _AUTODUMP_OUTCOMES:
        return True
    if outcome == "faulted":
        return isinstance(failure, (DuelTargetError, DuelMemoryError))
    return False


class FlightRecorder:
    """Bounded history of completed queries, dumpable as JSON.

    ``capacity`` bounds the query window; ``ring_capacity`` bounds the
    per-query pull/yield event ring kept in each entry; ``dump_dir``
    (optional) is where post-mortems land — without it the recorder
    still records and :meth:`dump` requires an explicit directory.
    """

    def __init__(self, capacity: int = 32,
                 dump_dir: Optional[str] = None,
                 ring_capacity: int = 512, clock=time.time,
                 pin_capacity: int = 16):
        if capacity <= 0:
            raise ValueError("recorder capacity must be positive")
        self.capacity = capacity
        self.ring_capacity = ring_capacity
        self.dump_dir = dump_dir
        self.entries: deque[dict] = deque(maxlen=capacity)
        #: Pinned records live outside the rolling window: a burst of
        #: ordinary queries cannot evict them (bounded separately).
        self.pinned: deque[dict] = deque(maxlen=pin_capacity)
        self._clock = clock
        self._lock = threading.Lock()
        #: Queries recorded over the recorder's lifetime (not clipped).
        self.recorded = 0
        #: Post-mortems written so far (also the dump file sequence).
        self.dumps = 0

    # -- recording ---------------------------------------------------------
    def record(self, entry: dict) -> None:
        """Append one completed query's record (oldest falls off).

        Lock-guarded: concurrent sessions sharing one recorder (the
        ``repro.serve`` front end) must not lose ``recorded`` counts
        or interleave with a :meth:`dump` snapshotting the window.
        """
        events = entry.get("events")
        if events is not None and len(events) > self.ring_capacity:
            entry["events"] = events[-self.ring_capacity:]
            entry["events_clipped"] = True
        with self._lock:
            self.entries.append(entry)
            self.recorded += 1

    def observe(self, record) -> None:
        """Record a finished query, dumping when its ending warrants
        it (a session sink; ``record`` is a
        :class:`~repro.core.session.QueryRecord`).  Rejected queries
        never ran and are not recorded."""
        outcome = record.outcome
        if outcome == "rejected":
            return
        error = record.error
        entry = {"qid": record.qid, "text": record.text,
                 "outcome": outcome, "values": record.values,
                 "stats": dict(record.stats),
                 "phases": dict(record.phases)}
        if record.kind is not None:
            entry["kind"] = record.kind
        if error is not None and outcome == "faulted":
            entry["error"] = str(error)
            entry["error_type"] = type(error).__name__
        tracer = record.tracer
        if tracer is not None:
            entry["explain"] = [span.as_dict() for span in tracer.spans]
            events = tracer.events()
            if events:
                entry["events"] = [list(event) for event in events]
        self.record(entry)
        if self.dump_dir is not None and should_dump(outcome, error):
            reason = f"{outcome}: query {record.qid} {record.text!r}"
            if error is not None:
                reason += f" ({error})"
            session = record.session
            try:
                self.dump(reason, metrics=session.metrics,
                          governor=session.governor)
            except OSError:
                pass        # a failing dump must never break the session

    def pin(self, reason: str, entry: dict) -> None:
        """Keep one record outside the rolling window's eviction.

        The serve layer pins slow-query traces here: the query that
        tripped ``--slow-ms`` stays dumpable even after ``capacity``
        ordinary queries have rolled the main window past it.
        """
        record = {"pin_reason": reason, "pinned_at": self._clock()}
        record.update(entry)
        with self._lock:
            self.pinned.append(record)

    def last(self, n: Optional[int] = None) -> list[dict]:
        """The most recent ``n`` entries (all of them by default)."""
        with self._lock:
            window = list(self.entries)
        return window if n is None else window[-n:]

    # -- post-mortems ------------------------------------------------------
    def dump(self, reason: str, metrics=None, governor=None,
             dump_dir: Optional[str] = None) -> str:
        """Write a self-contained post-mortem JSON; returns its path.

        ``metrics`` (a registry) and ``governor`` enrich the artifact
        with a metrics snapshot and the limits/policies in force.
        Raises :class:`ValueError` when no directory is configured and
        none is given.
        """
        directory = dump_dir if dump_dir is not None else self.dump_dir
        if directory is None:
            raise ValueError("no dump directory configured "
                             "(set dump_dir or pass one)")
        os.makedirs(directory, exist_ok=True)
        with self._lock:
            self.dumps += 1
            recorded = self.recorded
            window = list(self.entries)
            pinned = list(self.pinned)
        artifact = {
            "version": DUMP_VERSION,
            "reason": reason,
            "dumped_at": self._clock(),
            "queries_recorded": recorded,
            "queries": window,
            "pinned": pinned,
            "metrics": metrics.snapshot() if metrics is not None else None,
            "limits": dict(governor.limits) if governor is not None
            else None,
            "policies": dict(governor.policies) if governor is not None
            else None,
        }
        path = os.path.join(directory,
                            f"duel-postmortem-{self.dumps:04d}.json")
        with open(path, "w") as handle:
            json.dump(artifact, handle, indent=2)
            handle.write("\n")
        return path
