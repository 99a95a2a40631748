"""Drive generated queries through the shipped program.

In process, a :class:`~repro.core.session.DuelSession` runs each query
through ``ievents`` exactly as the REPL does.  Served, a real
``python -m repro <target.c> --serve --port 0`` subprocess answers
:class:`~repro.serve.client.DuelClient` connections.  Either way every
query becomes one :class:`Record`: its latency, its time to first
output line, whether its output matched the reference, and its count
stats from the terminal event.
"""

from __future__ import annotations

import os
import statistics
import threading
from time import perf_counter, perf_counter_ns
from typing import NamedTuple, Optional

from repro.core.session import DuelSession
from repro.minic.runner import run_program
from repro.obs.statements import StatementStats
from repro.serve.chaos import ServerProcess
from repro.serve.client import DuelClient
from repro.target import snapshot
from repro.target.interface import SimulatorBackend

#: Per-query counters taken from the terminal ``stats``; they repeat
#: exactly for the same query on the same target.
COUNTS = ("steps", "symnodes", "expand", "reads", "writes", "lookups")


class Record(NamedTuple):
    query: object              # gen.Query
    ok: bool
    ms: float                  # submission to terminal event
    first_ms: Optional[float]  # submission to first value line
    values: int
    stats: dict
    profile: Optional[dict]    # served span tree (traced runs only)


def counts_of(record: Record) -> tuple:
    return tuple(record.stats.get(name, 0) for name in COUNTS)


# -- in process -----------------------------------------------------------

class InProcess:
    """One target program and a REPL-configured session over it."""

    def __init__(self, workload, backend=None):
        target = workload.target
        interp = run_program(target.source(), argv=target.argv)
        self.program = interp.program
        self.base = snapshot.take(self.program)
        self.session = self.make_session(backend)

    def make_session(self, backend=None) -> DuelSession:
        """A session with the REPL's defaults: symbolic output on, page
        cache off, statement statistics on."""
        session = DuelSession(backend if backend is not None
                              else SimulatorBackend(self.program))
        session.statements = StatementStats()
        return session

    def run(self, query) -> Record:
        """Drive one query; a write is rolled back afterwards."""
        session = self.session
        lines = []
        first = None
        terminal = info = None
        t0 = perf_counter_ns()
        for kind, payload in session.ievents(query.text):
            if kind == "value":
                if first is None:
                    first = perf_counter_ns()
                lines.append(payload)
            else:
                terminal, info = kind, payload
        t1 = perf_counter_ns()
        if query.write:
            snapshot.restore(self.program, self.base)
            session.evaluator.invalidate_target_caches()
        ms = (t1 - t0) / 1e6
        ok = terminal == "done" and tuple(lines) == query.lines
        return Record(query, ok, ms,
                      None if first is None else (first - t0) / 1e6,
                      len(lines), info.get("stats", {}), None)


def run_for(runner, stream, seconds: float) -> tuple[list, float]:
    """Drive ``stream`` through ``runner`` for ``seconds``; returns the
    records and the wall time they took."""
    records = []
    start = perf_counter()
    deadline = start + seconds
    for query in stream:
        records.append(runner.run(query))
        if perf_counter() >= deadline:
            break
    return records, perf_counter() - start


# -- served ---------------------------------------------------------------

class CountingReader:
    """A client's socket reader that counts frames and bytes received."""

    def __init__(self, inner):
        self.inner = inner
        self.frames = 0
        self.bytes = 0

    def readline(self, limit=-1):
        line = self.inner.readline(limit)
        if line:
            self.frames += 1
            self.bytes += len(line)
        return line

    def close(self):
        self.inner.close()


class Client:
    """One closed-loop connection to the served target."""

    def __init__(self, port: int, profile: bool = False):
        self.conn = DuelClient(port=port, timeout=60.0)
        self.profile = profile
        self.reader = None
        if profile:
            self.reader = CountingReader(self.conn._rfile)
            self.conn._rfile = self.reader

    def run(self, query) -> Record:
        first = []

        def on_line(_line):
            if not first:
                first.append(perf_counter_ns())

        t0 = perf_counter_ns()
        result = self.conn.duel(query.text, on_line=on_line,
                                profile=self.profile)
        t1 = perf_counter_ns()
        ms = (t1 - t0) / 1e6
        return Record(query,
                      result.outcome == "done"
                      and tuple(result.lines) == query.lines,
                      ms, (first[0] - t0) / 1e6 if first else None,
                      len(result.lines), result.stats or {},
                      result.profile)

    def rtt_ms(self, pings: int = 50) -> float:
        """Median round trip of a ``ping``: framing and transport, with
        no query work on the server."""
        times = []
        for _ in range(pings):
            t0 = perf_counter_ns()
            self.conn.ping()
            times.append((perf_counter_ns() - t0) / 1e6)
        return statistics.median(times)

    def close(self) -> None:
        self.conn.close()


class Server:
    """A ``python -m repro <target.c> --serve`` subprocess with shipped
    defaults (statements on, page cache off, no journal)."""

    def __init__(self, workload, srcdir: str):
        target = workload.target
        with open(target.path, "w") as handle:
            handle.write(target.source())
        env = dict(os.environ)
        env["PYTHONPATH"] = srcdir
        self.proc = ServerProcess(
            [target.path, *target.argv[1:], "--serve", "--port", "0"],
            timeout=120.0, env=env)
        self.port = self.proc.start()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("server peak RSS unavailable")

    def stop(self) -> None:
        """SIGTERM, wait; SIGKILL if the drain does not finish."""
        self.proc.terminate()


def run_clients(clients: list, streams: list, seconds: float
                ) -> tuple[list, float]:
    """Closed loop: each client on its own thread sends its next query
    only after the previous one finished, until ``seconds`` pass."""
    results = [None] * len(clients)
    errors = []
    start = perf_counter()

    def loop(index: int) -> None:
        try:
            results[index] = run_for(clients[index], streams[index],
                                     seconds)[0]
        except Exception as error:   # reported, never swallowed
            errors.append(error)

    threads = [threading.Thread(target=loop, args=(i,))
               for i in range(len(clients))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 120)
    if errors:
        raise errors[0]
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a client did not finish")
    wall = perf_counter() - start
    return [r for rs in results for r in rs], wall
