"""Chaos harness: a deterministic fault-injecting TCP proxy.

PR 1 gave the *target* layer a fault injector
(:class:`~repro.target.interface.FaultInjectingBackend`); this module
is its twin for the *network* layer.  A :class:`ChaosProxy` sits
between :class:`~repro.serve.client.DuelClient` and
:class:`~repro.serve.server.DuelServer` and applies a scripted or
seeded :class:`FaultPlan` to each proxied connection:

``drop``
    forward ``at`` bytes in the chosen direction, then close both
    sides cleanly — the mid-conversation disconnect;
``reset``
    like ``drop`` but the client side is closed with ``SO_LINGER``
    zero, so the peer sees a hard TCP RST (``ECONNRESET``) instead of
    an orderly EOF — often mid-frame;
``truncate``
    forward *exactly* ``at`` bytes — cutting the stream mid-frame at
    a byte boundary the framing layer never chose — then close;
``delay``
    once ``at`` bytes have passed, hold the next chunk for
    ``seconds`` before forwarding (a latency spike);
``stall``
    once ``at`` bytes have passed, stop forwarding for ``seconds``
    while keeping the connection open — the slow-loris wedge the
    server's heartbeats and send timeouts exist for.

Determinism is the whole point: every fault is scheduled by byte
offset and connection index, and the seeded plan derives its choices
from ``random.Random(seed)`` per connection — the same seed replays
the same chaos, so a failing chaos test is a *reproducible* chaos
test.  The proxy records everything it injected in :attr:`events`.

Usage::

    plan = FaultPlan.scripted({0: [drop_after(200)]})
    proxy = ChaosProxy(("127.0.0.1", server.port), plan)
    port = proxy.start()
    client = DuelClient(port=port, ...)   # speaks through the chaos
    ...
    proxy.stop()

PR 7 adds *process-level* faults for the crash-only durability layer:
:class:`ServerProcess` runs a real ``python -m repro --serve``
subprocess (with ``--state-dir``) that the harness can
:meth:`~ServerProcess.sigkill` mid-workload and :meth:`restart
<ServerProcess.restart>` against the same state directory, and
:func:`tear_tail` truncates a journal segment mid-record — the
"killed between append and fsync" torn-tail crash the journal must
recover from, simulated deterministically at a byte offset.
"""

from __future__ import annotations

import os
import random
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from typing import Optional

#: Directions a directive can apply to (relative to the client).
UP = "up"        # client -> server bytes
DOWN = "down"    # server -> client bytes

#: Every directive kind the proxy knows how to inject.
KINDS = ("drop", "reset", "truncate", "delay", "stall")

_RECV = 65536


class Directive:
    """One scheduled fault on one proxied connection.

    ``kind`` is one of :data:`KINDS`; ``at`` is the byte offset in
    ``direction`` at which the fault engages; ``seconds`` parametrizes
    ``delay`` and ``stall``.
    """

    __slots__ = ("kind", "at", "direction", "seconds", "done")

    def __init__(self, kind: str, at: int = 0, direction: str = DOWN,
                 seconds: float = 0.0):
        if kind not in KINDS:
            raise ValueError(f"unknown chaos kind {kind!r} "
                             f"(know: {', '.join(KINDS)})")
        if direction not in (UP, DOWN):
            raise ValueError(f"unknown direction {direction!r}")
        self.kind = kind
        self.at = int(at)
        self.direction = direction
        self.seconds = float(seconds)
        self.done = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = f", {self.seconds}s" if self.kind in ("delay", "stall") \
            else ""
        return f"<{self.kind} @{self.direction}:{self.at}{extra}>"


# -- directive shorthands (test vocabulary) --------------------------------
def drop_after(at: int, direction: str = DOWN) -> Directive:
    return Directive("drop", at, direction)


def reset_after(at: int, direction: str = DOWN) -> Directive:
    return Directive("reset", at, direction)


def truncate_after(at: int, direction: str = DOWN) -> Directive:
    return Directive("truncate", at, direction)


def delay_after(at: int, seconds: float,
                direction: str = DOWN) -> Directive:
    return Directive("delay", at, direction, seconds)


def stall_after(at: int, seconds: float,
                direction: str = DOWN) -> Directive:
    return Directive("stall", at, direction, seconds)


class FaultPlan:
    """What to inject, per accepted connection (0-based index).

    :meth:`scripted` maps explicit connection indices to directive
    lists (missing indices pass clean); :meth:`seeded` derives one
    directive per connection from a seed — deterministic pseudo-random
    chaos with a tunable fault rate.
    """

    def __init__(self, table: Optional[dict] = None,
                 default: Optional[list] = None):
        self._table = {index: list(directives)
                       for index, directives in (table or {}).items()}
        self._default = list(default or [])

    @classmethod
    def scripted(cls, table: dict,
                 default: Optional[list] = None) -> "FaultPlan":
        return cls(table, default)

    @classmethod
    def clean(cls) -> "FaultPlan":
        return cls()

    @classmethod
    def seeded(cls, seed: int, connections: int, *, rate: float = 0.5,
               kinds=KINDS, min_at: int = 64, max_at: int = 4096,
               seconds: float = 0.2) -> "FaultPlan":
        """One deterministic directive per connection index.

        Each connection gets its own ``random.Random`` derived from
        ``(seed, index)``, so adding connections never reshuffles the
        faults of earlier ones.
        """
        table: dict[int, list[Directive]] = {}
        for index in range(connections):
            rng = random.Random(f"{seed}:{index}")
            if rng.random() >= rate:
                continue
            kind = rng.choice(list(kinds))
            at = rng.randint(min_at, max_at)
            direction = rng.choice((UP, DOWN))
            table[index] = [Directive(kind, at, direction, seconds)]
        return cls(table)

    def for_connection(self, index: int) -> list[Directive]:
        """Fresh directive copies for connection ``index``."""
        source = self._table.get(index, self._default)
        return [Directive(d.kind, d.at, d.direction, d.seconds)
                for d in source]


class _Kill(Exception):
    """Internal: a directive decided this connection dies now."""

    def __init__(self, reset: bool):
        self.reset = reset


class _ProxiedConnection:
    """One client<->server pipe pair under a directive list."""

    def __init__(self, proxy: "ChaosProxy", index: int,
                 client_sock: socket.socket, server_sock: socket.socket,
                 directives: list[Directive]):
        self.proxy = proxy
        self.index = index
        self.client_sock = client_sock
        self.server_sock = server_sock
        self.directives = directives
        self.sent = {UP: 0, DOWN: 0}
        self._lock = threading.Lock()
        self._closed = False

    # -- fault application -------------------------------------------------
    def _apply(self, direction: str, data: bytes) -> bytes:
        """Run due directives; returns the bytes to forward.

        Raises :class:`_Kill` when a terminal directive engages.
        """
        offset = self.sent[direction]
        for directive in self.directives:
            if directive.done or directive.direction != direction:
                continue
            if offset + len(data) <= directive.at:
                continue
            keep = max(directive.at - offset, 0)
            kind = directive.kind
            directive.done = True
            self.proxy._note(self.index, kind, direction, directive.at)
            if kind in ("drop", "truncate", "reset"):
                self.sent[direction] += keep
                if keep:
                    self._forward(direction, data[:keep])
                raise _Kill(reset=(kind == "reset"))
            if kind in ("delay", "stall"):
                # Forward the clean prefix, hold the rest.
                if keep:
                    self.sent[direction] += keep
                    self._forward(direction, data[:keep])
                    data = data[keep:]
                self.proxy._sleep(directive.seconds)
        return data

    def _forward(self, direction: str, data: bytes) -> None:
        dst = self.server_sock if direction == UP else self.client_sock
        dst.sendall(data)

    # -- pumping -----------------------------------------------------------
    def pump(self, direction: str) -> None:
        src = self.client_sock if direction == UP else self.server_sock
        try:
            while not self.proxy._stopping.is_set():
                data = src.recv(_RECV)
                if not data:
                    raise _Kill(reset=False)
                data = self._apply(direction, data)
                if data:
                    self.sent[direction] += len(data)
                    self._forward(direction, data)
        except _Kill as kill:
            self.close(reset=kill.reset)
        except OSError:
            self.close(reset=False)

    def close(self, reset: bool = False) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if reset:
            try:
                self.client_sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER,
                    struct.pack("ii", 1, 0))
            except OSError:
                pass
        for sock in (self.client_sock, self.server_sock):
            # shutdown() before close(): close() alone does not wake a
            # pump thread blocked in recv() on the other side.
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass


class ChaosProxy:
    """A TCP proxy applying a :class:`FaultPlan` to every connection.

    ``upstream`` is the real server's ``(host, port)``; :meth:`start`
    binds the listening side (``port=0`` picks a free one) and returns
    the port clients should dial.  Every injected fault is recorded in
    :attr:`events` as ``(connection index, kind, direction, offset)``.
    """

    def __init__(self, upstream: tuple, plan: Optional[FaultPlan] = None,
                 host: str = "127.0.0.1", port: int = 0):
        self.upstream = upstream
        self.plan = plan if plan is not None else FaultPlan.clean()
        self.host = host
        self.port = port
        self.events: list[tuple] = []
        self.connections_seen = 0
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._threads: list[threading.Thread] = []
        self._conns: list[_ProxiedConnection] = []
        self._lock = threading.Lock()
        self._stopping = threading.Event()

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> int:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(64)
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="chaos-accept", daemon=True)
        self._accept_thread.start()
        return self.port

    def stop(self) -> None:
        self._stopping.set()
        listener = self._listener
        self._listener = None
        if listener is not None:
            try:
                listener.close()
            except OSError:
                pass
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            conn.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
            self._accept_thread = None
        for thread in self._threads:
            thread.join(timeout=5)
        self._threads = []

    def __enter__(self) -> "ChaosProxy":
        if self._listener is None:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def address(self) -> tuple:
        return (self.host, self.port)

    # -- internals ---------------------------------------------------------
    def _note(self, index: int, kind: str, direction: str,
              offset: int) -> None:
        with self._lock:
            self.events.append((index, kind, direction, offset))

    def _sleep(self, seconds: float) -> None:
        """Directive sleep, cut short by :meth:`stop`."""
        self._stopping.wait(seconds)

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                client_sock, _ = self._listener.accept()
            except OSError:
                return
            with self._lock:
                index = self.connections_seen
                self.connections_seen += 1
            try:
                server_sock = socket.create_connection(self.upstream,
                                                       timeout=10)
            except OSError:
                try:
                    client_sock.close()
                except OSError:
                    pass
                continue
            for sock in (client_sock, server_sock):
                try:
                    sock.setsockopt(socket.IPPROTO_TCP,
                                    socket.TCP_NODELAY, 1)
                except OSError:
                    pass
            conn = _ProxiedConnection(self, index, client_sock,
                                      server_sock,
                                      self.plan.for_connection(index))
            with self._lock:
                self._conns.append(conn)
            for direction in (UP, DOWN):
                thread = threading.Thread(
                    target=conn.pump, args=(direction,),
                    name=f"chaos-{index}-{direction}", daemon=True)
                thread.start()
                self._threads.append(thread)


# -- process-level faults (crash-only durability harness) -------------------
def tear_tail(path: str, drop_bytes: int) -> int:
    """Truncate ``drop_bytes`` off the end of ``path``; returns new size.

    The deterministic stand-in for "SIGKILL landed between the
    buffered journal append and its fsync": the final record is left
    half-written at an arbitrary byte boundary, exactly the torn tail
    :meth:`~repro.serve.journal.Journal` must truncate — never refuse
    — on the next open.
    """
    size = os.path.getsize(path)
    keep = max(size - max(drop_bytes, 0), 0)
    with open(path, "r+b") as handle:
        handle.truncate(keep)
    return keep


class ServerProcess:
    """A real ``duel-serve`` subprocess the harness can SIGKILL.

    The in-process :meth:`DuelServer.simulate_crash` is fast and
    deterministic, but only an actual process death proves the
    durability layer end to end — no destructor, ``finally`` or
    daemon thread gets to run.  ``args`` are appended to the base
    ``python -m repro <program args>`` command line (``--serve`` plus
    ``--state-dir`` belong there); stdout is scraped for the
    ``serving on host:port`` announcement.

    One instance manages one *state directory's worth* of server
    lifetimes: :meth:`sigkill` then :meth:`restart` reuses the same
    command line, so recovery runs against exactly the state the
    killed lifetime left behind.
    """

    READY_RE = re.compile(r"serving on [^:]+:(\d+)")

    def __init__(self, args: list, *, timeout: float = 30.0,
                 env: Optional[dict] = None):
        self.args = list(args)
        self.timeout = timeout
        self.env = env
        self.port: Optional[int] = None
        self.proc: Optional[subprocess.Popen] = None
        #: Every line scraped from the current lifetime's stdout.
        self.stdout_lines: list[str] = []
        #: How many lifetimes this state dir has seen.
        self.lifetimes = 0

    def start(self) -> int:
        """Spawn the server; blocks until it announces its port."""
        if self.proc is not None and self.proc.poll() is None:
            raise RuntimeError("server already running")
        self.stdout_lines = []
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *self.args],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=self.env)
        self.lifetimes += 1
        deadline = time.monotonic() + self.timeout
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    "server exited before announcing its port:\n"
                    + "".join(self.stdout_lines))
            self.stdout_lines.append(line)
            match = self.READY_RE.search(line)
            if match:
                self.port = int(match.group(1))
                # Keep draining stdout so the server never blocks on a
                # full pipe.
                threading.Thread(target=self._drain_stdout,
                                 daemon=True).start()
                return self.port
        raise RuntimeError(f"server not ready within {self.timeout}s")

    def _drain_stdout(self) -> None:
        proc = self.proc
        try:
            for line in proc.stdout:
                self.stdout_lines.append(line)
        except (OSError, ValueError):        # pragma: no cover - races
            pass

    def sigkill(self) -> None:
        """SIGKILL the server — no drain, no cleanup, no goodbye."""
        if self.proc is None:
            return
        try:
            self.proc.send_signal(signal.SIGKILL)
        except (OSError, ProcessLookupError):  # pragma: no cover
            pass
        self.proc.wait(timeout=self.timeout)

    def restart(self) -> int:
        """Start a fresh lifetime over the same command line/state dir."""
        if self.proc is not None and self.proc.poll() is None:
            raise RuntimeError("kill the server before restarting it")
        return self.start()

    def terminate(self) -> None:
        """Graceful SIGTERM stop (end-of-test cleanup)."""
        if self.proc is None or self.proc.poll() is not None:
            return
        try:
            self.proc.terminate()
            self.proc.wait(timeout=self.timeout)
        except (OSError, subprocess.TimeoutExpired):
            try:
                self.proc.kill()
                self.proc.wait(timeout=5)
            except (OSError, subprocess.TimeoutExpired):  # pragma: no cover
                pass

    def __enter__(self) -> "ServerProcess":
        if self.proc is None:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.terminate()
