"""The concurrent DUEL query server: ``duel-serve``.

A network-facing front end over everything PRs 1–4 built: each
accepted query runs under its client's resource governor (with the
:class:`~repro.core.governor.CancelToken` reachable from ``cancel``
frames and tripped on disconnect), is audited by the shared
:class:`~repro.obs.qlog.QueryLog`, folded into the process
:class:`~repro.obs.metrics.MetricsRegistry` (scrapeable via
``--metrics-port``), and captured by the shared
:class:`~repro.obs.recorder.FlightRecorder`.  The target program is
shared by every client through the snapshot-isolating
:class:`~repro.serve.sessions.SessionManager`.

Concurrency model — four kinds of threads:

* the **acceptor** (``ThreadingTCPServer.serve_forever`` in a daemon
  thread) accepts connections;
* one **connection thread** per client (the ``ThreadingTCPServer``
  handler) reads frames and answers control operations inline, so a
  ``cancel`` or ``stats`` is handled even while the client's query is
  being driven elsewhere;
* a bounded pool of **query workers** drains one shared, bounded
  queue of admitted ``duel`` requests and streams results back;
* one **watchdog** thread owning every liveness decision: heartbeat
  pings and reaps, wall-clock hard-cancellation of queries that blow
  past their deadline, parked-session expiry, and health gauges.

Admission control is explicit, never buffering: a ``duel`` frame is
rejected with ``rejected: busy`` when the client already has
``per_client`` queries in flight, and with ``rejected: overloaded``
when the shared queue is full — the client finds out immediately
instead of hanging.  ``max_clients`` bounds concurrent connections
the same way (``error`` + hangup on the over-limit connect).

Fault tolerance (PR 6) is layered on without changing the admitted
happy path:

* **Heartbeats.**  The watchdog pings connections idle past
  ``heartbeat_interval``; *any* inbound frame counts as proof of
  life.  A connection silent for ``heartbeat_timeout`` with an
  unanswered ping is *reaped*: its socket is shut down, which
  unblocks the connection thread and runs the normal disconnect
  cleanup — nothing is leaked that a voluntary disconnect would not
  also release.
* **Parking and resume.**  An abnormal disconnect (reap, network
  fault — anything but a clean ``bye``) parks the session under its
  resume key for ``resume_ttl`` seconds; a reconnect presenting the
  key in ``hello`` re-attaches it, aliases and idempotency cache
  intact.
* **Watchdog hard-cancel.**  Every query stops itself at its own
  checkpoints — between values, and every few statements inside a
  running target call — so a deadline or a ``cancel`` never needs
  the watchdog.  A query still running at 1.5x its deadline (60 s
  with ``deadline_ms off``) is hard-cancelled: its token is tripped,
  and it ends ``cancelled`` at its next checkpoint.  A worker that
  reaches none within ``watchdog_grace`` after that (it is blocked
  in a backend call that polls nothing) is declared lost: the
  session's leases are reclaimed (snapshot restored, RW lock
  released — crash-only cleanup), the session is poisoned, the
  client gets a ``cancelled`` terminal frame, and a replacement
  worker thread is started so the pool never shrinks; the lost
  worker exits when it wakes.
* **Idempotency.**  ``duel`` frames may carry an ``idem`` token; the
  completed result is cached per session and a retried token is
  *replayed* (``replayed: true``), never re-executed — a retry after
  an ambiguous disconnect cannot run a side-effecting query twice.
* **Degraded mode.**  Target-fault terminal outcomes feed a
  :class:`~repro.serve.health.CircuitBreaker`; while it is open,
  side-effecting queries are refused with ``rejected: degraded`` and
  reads keep flowing.  ``/healthz`` (via the metrics server) and the
  ``serve_health`` gauge surface ok / degraded / draining.

Shutdown drains: :meth:`DuelServer.stop` flips health to draining,
stops the acceptor, lets the workers finish every admitted query (up
to ``drain_timeout``, after which remaining queries' cancel tokens
are tripped; :meth:`request_fast_drain` — a second SIGINT — trips
them immediately), sends each connected client an unsolicited ``bye``
and closes the sockets.
"""

from __future__ import annotations

import contextlib
import queue
import socket
import socketserver
import struct
import threading
import time
from collections import deque
from typing import Optional

from repro.core.errors import DuelError
from repro.obs.reqtrace import RequestTrace, make_trace_id
from repro.serve import protocol
from repro.serve.health import CircuitBreaker, ServerHealth
from repro.serve.journal import StateStore, fold_sessions, unpack
from repro.serve.sessions import (IDEM_LINES_BYTES, ClientSession,
                                  SessionManager)
from repro.target import snapshot as target_snapshot
from repro.target.snapshot import Snapshot

#: A queue sentinel telling one worker to exit.
_STOP = object()

#: Socket send timeout, seconds.  A client that stops reading while
#: its query streams would otherwise block the worker in ``write``
#: forever (the governor only runs while the query makes progress, so
#: not even a deadline rescues a worker stuck in a syscall).  After
#: this long the write fails, the connection is declared dead and the
#: query's token is tripped — a slow consumer costs one worker at
#: most ``SEND_TIMEOUT`` seconds, never the whole pool.
SEND_TIMEOUT = 30.0

#: ``error_type`` values on ``faulted`` terminals that indicate a sick
#: *target* (and feed the circuit breaker) rather than a bad query.  A
#: user typo (``DuelNameError``) or a bad pointer in a query
#: (``DuelMemoryError``) must never degrade the service for everyone.
TARGET_FAULT_TYPES = frozenset({"DuelTargetError", "TargetMemoryFault"})

#: Watchdog deadline assumed for queries running with no
#: ``deadline_ms`` limit, seconds.
DEFAULT_WATCHDOG_DEADLINE = 60.0


def _accesses_frame(frame: dict) -> dict:
    """Reshape a standard terminal frame into the ``accesses`` reply.

    The drive path builds the usual ``done``/``faulted``/... terminal
    (so health reporting, counters and observability see the real
    outcome), and only the frame actually sent is reshaped: the
    outcome moves into ``"outcome"``, the session's full access
    profile becomes ``"profile"``, and the advisor sweep rides along.
    """
    reply = {"ev": "accesses", "id": frame["id"],
             "outcome": frame["ev"], "values": frame.get("values", 0)}
    for key in ("kind", "diagnostic", "error", "error_type",
                "fingerprint", "trace", "advisor"):
        if key in frame:
            reply[key] = frame[key]
    if "access" in frame:
        reply["profile"] = frame["access"]
    return reply


class _Pending:
    """One admitted ``duel`` request, from queue to terminal frame.

    The cancellation handshake lives here.  ``cancel()`` may arrive
    at any point relative to the worker picking the request up;
    ``mark_started`` / the ``on_begin`` recheck and the ``lock``
    guarantee a cancel is never lost: before the drive starts the
    request is dropped outright, after it the session's live token is
    tripped (``begin_query`` clears the token, so the recheck runs
    *after* that clear, closing the race).

    The watchdog reads the timing fields (``started_at``,
    ``deadline_s``, ``hard_cancelled_at``).  ``finish_pending`` is
    idempotent via ``done``: the driving worker and the watchdog can
    race to finish a query and exactly one of them sends the terminal
    frame.
    """

    __slots__ = ("conn", "client", "request_id", "text", "lock",
                 "cancelled", "started", "done", "idem", "writes",
                 "started_at", "deadline_s", "worker_thread",
                 "hard_cancelled_at",
                 "idem_lines", "idem_bytes", "idem_clipped",
                 "trace_id", "profile", "admitted_at", "access")

    def __init__(self, conn: "_Connection", client: ClientSession,
                 request_id: int, text: str, idem: Optional[str] = None,
                 writes: Optional[bool] = None,
                 trace_id: Optional[str] = None,
                 profile: bool = False, access: bool = False):
        self.conn = conn
        self.client = client
        self.request_id = request_id
        self.text = text
        #: The wire trace id echoed on every frame for this request.
        self.trace_id = trace_id if trace_id is not None \
            else make_trace_id()
        #: Client asked for the span tree on the terminal frame.
        self.profile = profile
        #: The ``accesses`` wire op: force the memory-access tracer on,
        #: suppress value frames, answer with the locality profile.
        self.access = access
        #: Admission timestamp; ``started_at - admitted_at`` is the
        #: ``admission_queue`` span.
        self.admitted_at = time.monotonic()
        self.lock = threading.Lock()
        self.cancelled = False
        self.started = False
        self.done = False
        self.idem = idem
        #: True/False when admission classified the query (breaker
        #: open); None when classification was skipped (breaker
        #: closed — the hot path never pays the extra compile).
        self.writes = writes
        self.started_at: Optional[float] = None
        self.deadline_s: Optional[float] = None
        self.worker_thread: Optional[threading.Thread] = None
        self.hard_cancelled_at: Optional[float] = None
        self.idem_lines: list[str] = []
        self.idem_bytes = 0
        self.idem_clipped = False

    def cancel(self, reason: str = "client cancel") -> None:
        with self.lock:
            self.cancelled = True
            if self.started and not self.done:
                self.client.token.trip(reason)

    def mark_started(self) -> bool:
        """Claim the request for driving; False when already cancelled."""
        with self.lock:
            if self.cancelled:
                return False
            self.started = True
            self.started_at = time.monotonic()
            self.worker_thread = threading.current_thread()
            dms = self.client.session.governor.limits.get("deadline_ms")
            self.deadline_s = dms / 1000.0 if dms else None
            return True

    def recheck(self) -> None:
        """``on_begin`` hook: re-trip a cancel that raced query start."""
        with self.lock:
            if self.cancelled:
                self.client.token.trip("client cancel")

    def idem_note(self, line: str) -> None:
        """Record one output line for replay (bounded)."""
        if self.idem_clipped:
            return
        self.idem_bytes += len(line)
        if self.idem_bytes > IDEM_LINES_BYTES:
            self.idem_clipped = True
        else:
            self.idem_lines.append(line)


class _Connection:
    """Wire state of one connected client (shared with the workers)."""

    def __init__(self, client: ClientSession, wfile, server: "DuelServer",
                 sock=None):
        self.client = client
        self._wfile = wfile
        self._server = server
        self._sock = sock
        self._write_lock = threading.Lock()
        self.pending: dict[int, _Pending] = {}
        self._pending_lock = threading.Lock()
        self.alive = True
        #: Frames this connection failed to deliver (client vanished).
        self.dropped_frames = 0
        #: Liveness bookkeeping (watchdog heartbeats).
        self.last_recv = time.monotonic()
        self.ping_sent_at: Optional[float] = None
        self.ping_seq = 0
        self.reaped = False
        #: True once ``welcome`` was delivered (a session is only worth
        #: parking if its client ever learned the resume key).
        self.welcomed = False
        #: True when the client said ``bye`` (no parking either).
        self.clean_bye = False

    def touch(self) -> None:
        """Any inbound frame is proof of life."""
        self.last_recv = time.monotonic()

    # -- frame delivery ----------------------------------------------------
    def send(self, frame: dict) -> bool:
        """Write one frame; False (never an exception) on a dead peer."""
        data = protocol.encode(frame)
        with self._write_lock:
            if not self.alive:
                self.dropped_frames += 1
                return False
            try:
                self._wfile.write(data)
                self._wfile.flush()
                return True
            except (OSError, ValueError):
                self.alive = False
                self.dropped_frames += 1
                return False

    def close_transport(self) -> None:
        """Force the peer socket shut (watchdog reap).

        Shutting down — not closing — the socket makes the connection
        thread's blocking ``readline`` return EOF, so the one and only
        cleanup path (the handler's ``finally``) runs; the handler
        still owns the close.
        """
        self.alive = False
        if self._sock is None:
            return
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    # -- pending-query tracking -------------------------------------------
    def add_pending(self, pending: _Pending) -> None:
        with self._pending_lock:
            self.pending[pending.request_id] = pending
            self.client.inflight += 1

    def finish_pending(self, pending: _Pending) -> bool:
        """Retire ``pending``; True only for the first caller."""
        with pending.lock:
            if pending.done:
                return False
            pending.done = True
        with self._pending_lock:
            if self.pending.pop(pending.request_id, None) is not None:
                self.client.inflight -= 1
        return True

    def find_pending(self, request_id: int) -> Optional[_Pending]:
        with self._pending_lock:
            return self.pending.get(request_id)

    def pending_list(self) -> list[_Pending]:
        with self._pending_lock:
            return list(self.pending.values())

    def cancel_all(self, reason: str) -> None:
        for pending in self.pending_list():
            pending.cancel(reason)


class DuelServer:
    """The embeddable query service (the CLI wraps this).

    Parameters map one-to-one onto the ``duel-serve`` flags:
    ``workers`` query threads drain a queue of at most ``queue_depth``
    admitted requests; ``per_client`` caps one client's in-flight
    queries; ``max_clients`` caps concurrent connections.  ``qlog``,
    ``recorder`` and ``metrics`` are shared across every client
    session — the thread-safe variants of those subsystems exist for
    exactly this.

    Fault-tolerance knobs: ``heartbeat_interval`` / ``heartbeat_timeout``
    drive the ping/reap cycle (either <= 0 disables it);
    ``resume_ttl`` bounds how long an abnormally disconnected session
    stays resumable; ``watchdog_tick`` is the watchdog's cadence and
    ``watchdog_grace`` the window between the watchdog's token trip
    and declaring a worker lost; ``health`` (or the ``breaker_*``
    shorthands) configures degraded mode.
    """

    def __init__(self, program, *, host: str = "127.0.0.1", port: int = 0,
                 workers: int = 4, queue_depth: int = 16,
                 max_clients: int = 32, per_client: int = 1,
                 session_kwargs: Optional[dict] = None,
                 metrics=None, qlog=None, recorder=None,
                 statements=None, tracelog=None, accesslog=None,
                 sampler=None, slow_ms: Optional[float] = None,
                 drain_timeout: float = 10.0,
                 heartbeat_interval: float = 10.0,
                 heartbeat_timeout: float = 30.0,
                 resume_ttl: float = 60.0,
                 watchdog_tick: float = 0.25,
                 watchdog_grace: float = 2.0,
                 health: Optional[ServerHealth] = None,
                 breaker_threshold: int = 5,
                 breaker_window: float = 30.0,
                 breaker_cooldown: float = 10.0,
                 session_factory=None,
                 state_dir: Optional[str] = None,
                 journal_fsync: str = "interval:1.0",
                 checkpoint_interval: float = 30.0,
                 commit_writes: bool = False,
                 journal_sync_hook=None):
        if workers <= 0:
            raise ValueError("need at least one worker")
        if queue_depth <= 0:
            raise ValueError("queue depth must be positive")
        if per_client <= 0:
            raise ValueError("per-client cap must be positive")
        #: The crash-only durability layer (None without --state-dir):
        #: a write-ahead journal plus periodic target checkpoints, so
        #: a restarted server with the same state dir resurrects every
        #: parked session and applies every committed write's delta.
        self.store = StateStore(state_dir, fsync=journal_fsync,
                                sync_hook=journal_sync_hook) \
            if state_dir else None
        self.checkpoint_interval = checkpoint_interval
        self.commit_writes = commit_writes
        self.sessions = SessionManager(
            program, session_kwargs=session_kwargs,
            metrics=metrics, qlog=qlog, recorder=recorder,
            session_factory=session_factory,
            journal=self.store.journal if self.store else None,
            commit_writes=commit_writes,
            accesslog=accesslog, sampler=sampler)
        self.metrics = metrics
        self.qlog = qlog
        #: Fleet statement statistics (:class:`~repro.obs.statements.
        #: StatementStats`) — None keeps the single-predicate off path.
        #: Fed here, one row per served query with the queue/lock/
        #: stream phases added, not by the client sessions.
        self.statements = statements
        #: Request-trace exporter (:class:`~repro.obs.reqtrace.
        #: TraceLog`) — None disables span collection entirely.
        self.tracelog = tracelog
        #: Shared access-profile exporter (:class:`~repro.obs.access.
        #: AccessLog`) — None keeps the single-predicate off path; when
        #: set, every sampled query of every client session is
        #: profiled, and the ``accesses`` op's forced profiles are
        #: exported through it.
        self.accesslog = accesslog
        #: The one head-sampling coin (:class:`~repro.obs.trace.
        #: Sampler`, ``--trace-sample``) every client session tosses
        #: once per query; None observes every query.  Its verdict
        #: decides the engine tracer, access profiling and the trace
        #: export alike, so a sampled access profile always has its
        #: request trace.
        self.sampler = sampler
        #: Slow-query threshold, milliseconds (None = off): a served
        #: request slower end-to-end gets a dedicated qlog
        #: ``slow_query`` event, a flight-recorder pin, a slot in
        #: :attr:`slow_queries`, and an unconditional trace export.
        self.slow_ms = slow_ms
        #: The newest slow queries (bounded), served by the ``health``
        #: op for the ops console's slow-query tail.
        self.slow_queries: deque = deque(maxlen=32)
        self.recorder = recorder
        self.host = host
        self.port = port
        self.workers = workers
        self.queue_depth = queue_depth
        self.max_clients = max_clients
        self.per_client = per_client
        self.drain_timeout = drain_timeout
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.resume_ttl = resume_ttl
        self.watchdog_tick = watchdog_tick
        self.watchdog_grace = watchdog_grace
        if health is None:
            health = ServerHealth(CircuitBreaker(
                threshold=breaker_threshold, window=breaker_window,
                cooldown=breaker_cooldown))
        self.health = health
        self.health.detail = self.health_detail
        self._queue: queue.Queue = queue.Queue(maxsize=queue_depth)
        self._worker_threads: list[threading.Thread] = []
        self._worker_seq = 0
        self._tcp: Optional[socketserver.ThreadingTCPServer] = None
        self._acceptor: Optional[threading.Thread] = None
        self._watchdog: Optional[threading.Thread] = None
        self._checkpointer: Optional[threading.Thread] = None
        self._watchdog_stop = threading.Event()
        self._fast = threading.Event()
        self._conns: set[_Connection] = set()
        self._conns_lock = threading.Lock()
        self._client_seq = 0
        self._stopping = False
        #: Lifetime counters (also mirrored into ``metrics``).
        self.served = 0
        self.rejected = 0
        self.protocol_errors = 0
        self.reaped = 0
        self.hard_cancels = 0
        self.workers_lost = 0
        self.checkpoints = 0
        self.recovered_sessions = 0
        self.applied_writes = 0
        self.slow_query_count = 0
        #: ``accesses`` wire ops admitted (forced access profiles).
        self.accesses_served = 0
        self._watchdog_last_sweep: Optional[float] = None
        self._crashed = False

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> int:
        """Bind, spin up workers, watchdog and acceptor; returns the port."""
        server = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                server._handle_connection(self)

        class TCP(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        if self.store is not None:
            # Recovery runs strictly before the first accept: by the
            # time a client can present a resume key, every surviving
            # session is already parked and every committed write
            # re-applied.
            self._recover()
        self._tcp = TCP((self.host, self.port), Handler)
        self.port = self._tcp.server_address[1]
        for _ in range(self.workers):
            self._spawn_worker()
        self._watchdog = threading.Thread(target=self._watchdog_loop,
                                          name="duel-watchdog", daemon=True)
        self._watchdog.start()
        if self.store is not None and self.checkpoint_interval > 0:
            self._checkpointer = threading.Thread(
                target=self._checkpoint_loop,
                name="duel-checkpointer", daemon=True)
            self._checkpointer.start()
        self._acceptor = threading.Thread(target=self._tcp.serve_forever,
                                          name="duel-acceptor", daemon=True)
        self._acceptor.start()
        return self.port

    def _spawn_worker(self) -> None:
        self._worker_seq += 1
        thread = threading.Thread(target=self._worker_loop,
                                  name=f"duel-worker-{self._worker_seq}",
                                  daemon=True)
        thread.start()
        self._worker_threads.append(thread)

    def request_fast_drain(self) -> None:
        """Skip the graceful wait: trip every in-flight query now.

        Async-signal-safe by construction (sets one event; the drain
        loop inside :meth:`stop` polls it), so the CLI's second-SIGINT
        handler may call it directly.
        """
        self._fast.set()

    def stop(self) -> None:
        """Graceful drain: finish admitted queries, then hang up."""
        if self._tcp is None:
            return
        self._stopping = True
        self.health.set_draining()
        self._gauge_sync()
        if self.qlog is not None:
            self.qlog.server_event("drain_begin",
                                   clients=self.connections(),
                                   inflight=self.inflight())
        self._tcp.shutdown()          # stop accepting new connections
        for _ in self._worker_threads:
            self._queue.put(_STOP)    # after all admitted work
        deadline = time.monotonic() + self.drain_timeout
        tripped = False
        for thread in self._worker_threads:
            while thread.is_alive():
                if self._fast.is_set() and not tripped:
                    tripped = True
                    if self.qlog is not None:
                        self.qlog.server_event("drain_fast")
                    self._cancel_all_conns("server shutdown")
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                thread.join(timeout=min(0.2, remaining))
            if thread.is_alive() and not tripped:
                # Past the drain budget: trip every in-flight token so
                # the stuck queries come back as graceful cancellations.
                tripped = True
                self._cancel_all_conns("server shutdown")
            if thread.is_alive():
                thread.join(timeout=self.drain_timeout)
        self._watchdog_stop.set()
        if self._watchdog is not None:
            self._watchdog.join(timeout=5)
            self._watchdog = None
        if self._checkpointer is not None:
            self._checkpointer.join(timeout=5)
            self._checkpointer = None
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            conn.send({"ev": "bye", "reason": "server shutdown"})
            conn.alive = False
        self._tcp.server_close()
        if self._acceptor is not None:
            self._acceptor.join(timeout=5)
        self._tcp = None
        self._worker_threads = []
        if self.store is not None:
            # A clean shutdown leaves a fresh checkpoint behind so the
            # next start applies (almost) nothing.
            try:
                self.checkpoint()
            except Exception:
                self._count("serve_checkpoint_errors_total")
            self.store.close()

    def _cancel_all_conns(self, reason: str) -> None:
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            conn.cancel_all(reason)

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def inflight(self) -> int:
        """Admitted-but-unfinished queries across all clients."""
        with self._conns_lock:
            conns = list(self._conns)
        return sum(len(conn.pending) for conn in conns)

    def queued(self) -> int:
        return self._queue.qsize()

    def connections(self) -> int:
        with self._conns_lock:
            return len(self._conns)

    # -- metrics helpers ---------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def _gauge_sync(self) -> None:
        if self.metrics is None:
            return
        self.metrics.gauge("serve_clients").set(self.connections())
        self.metrics.gauge("serve_inflight").set(self.inflight())
        self.metrics.gauge("serve_queued").set(self.queued())
        self.metrics.gauge("serve_parked_sessions").set(
            self.sessions.parked_count())
        self.metrics.gauge("serve_health").set(self.health.code())

    def _server_event(self, kind: str, **fields) -> None:
        if self.qlog is not None:
            self.qlog.server_event(kind, **fields)

    # -- health detail (/healthz body + the ``health`` op) -------------------
    def health_detail(self) -> dict:
        """Per-subsystem health, one JSON-able dict.

        The shared payload behind the ``/healthz`` second body line
        and the wire ``health`` op — breaker window, journal
        lsn/segments, session table occupancy, watchdog liveness and
        the slow-query tail the ops console renders.
        """
        breaker = self.health.breaker
        sweep = self._watchdog_last_sweep
        detail = {
            "status": self.health.state(),
            "breaker": {"state": breaker.state(),
                        "threshold": breaker.threshold,
                        "window_s": breaker.window,
                        "cooldown_s": breaker.cooldown,
                        "trips": breaker.trips,
                        "rejections": breaker.rejections},
            "sessions": {"active": self.sessions.count(),
                         "parked": self.sessions.parked_count(),
                         "clients": self.connections(),
                         "inflight": self.inflight(),
                         "queued": self.queued()},
            "watchdog": {
                "last_sweep_age_s": None if sweep is None
                else round(time.monotonic() - sweep, 3),
                "reaped": self.reaped,
                "hard_cancels": self.hard_cancels,
                "workers_lost": self.workers_lost},
            "served": self.served,
            "rejected": self.rejected,
            "slow_queries": list(self.slow_queries),
        }
        if self.store is not None:
            journal = self.store.journal
            detail["journal"] = {"lsn": journal.lsn,
                                 "segments": len(journal.segments()),
                                 "checkpoints": self.checkpoints}
        if self.statements is not None:
            detail["statements"] = self.statements.state()
        if self.tracelog is not None:
            detail["traces_exported"] = self.tracelog.exported
        detail["accesses"] = {"served": self.accesses_served}
        if self.accesslog is not None:
            detail["accesses"]["exported"] = self.accesslog.exported
            detail["accesses"]["sample"] = \
                self.sampler.every if self.sampler is not None else 1
        detail["cache"] = self._cache_detail()
        return detail

    def _cache_detail(self) -> dict:
        """Fleet-wide page-cache section of :meth:`health_detail`.

        Per-session caches all fold their per-query deltas into the
        shared metrics registry, so the server-level view is just the
        registry's ``cache_*`` counters plus the configured policy.
        """
        policy = self.sessions.page_cache_policy()
        section: dict = {
            "policy": "demand" if policy is not None else "off"}
        if policy is not None:
            section["page_size"] = policy.page_size
            section["capacity"] = policy.capacity
        if self.metrics is not None:
            hits = self.metrics.counter("cache_hits").value
            misses = self.metrics.counter("cache_misses").value
            looked = hits + misses
            section.update({
                "hits": hits,
                "misses": misses,
                "hit_rate": round(hits / looked, 4) if looked else 0.0,
                "evictions":
                    self.metrics.counter("cache_evictions").value,
                "physical_reads":
                    self.metrics.counter("physical_reads").value,
                "logical_reads":
                    self.metrics.counter("target_reads_total").value,
            })
        return section

    # -- the watchdog -------------------------------------------------------
    def _watchdog_loop(self) -> None:
        while not self._watchdog_stop.wait(self.watchdog_tick):
            try:
                now = time.monotonic()
                self._heartbeat_pass(now)
                self._deadline_pass(now)
                expired = self.sessions.sweep_parked()
                if expired:
                    self._count("serve_sessions_expired_total", expired)
                    self._server_event("session_expired", count=expired)
                self._gauge_sync()
                self._watchdog_last_sweep = time.monotonic()
            except Exception:             # the watchdog must outlive
                self._count("serve_watchdog_errors_total")  # any one bug

    def _heartbeat_pass(self, now: float) -> None:
        if self.heartbeat_interval <= 0 or self.heartbeat_timeout <= 0:
            return
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            if not conn.alive or conn.reaped:
                continue
            idle = now - conn.last_recv
            unanswered = (conn.ping_sent_at is not None
                          and conn.ping_sent_at > conn.last_recv)
            if idle >= self.heartbeat_timeout and unanswered:
                self._reap(conn, "heartbeat timeout")
                continue
            if idle >= self.heartbeat_interval and (
                    not unanswered
                    or now - conn.ping_sent_at >= self.heartbeat_interval):
                conn.ping_seq += 1
                conn.ping_sent_at = now
                self._count("serve_pings_total")
                conn.send({"ev": "ping", "seq": conn.ping_seq})

    def _reap(self, conn: _Connection, reason: str) -> None:
        conn.reaped = True
        self.reaped += 1
        self._count("serve_reaped_total")
        self._server_event("reaped", client=conn.client.client_id,
                           reason=reason)
        conn.cancel_all(reason)
        conn.close_transport()

    def _deadline_pass(self, now: float) -> None:
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            for pending in conn.pending_list():
                with pending.lock:
                    if not pending.started or pending.done:
                        continue
                    started_at = pending.started_at
                    hard_at = pending.hard_cancelled_at
                    deadline = pending.deadline_s
                if deadline is None:
                    deadline = DEFAULT_WATCHDOG_DEADLINE
                if hard_at is None:
                    if now - started_at > 1.5 * deadline:
                        self._hard_cancel(pending, now)
                elif now - hard_at > self.watchdog_grace:
                    self._declare_worker_lost(pending)

    def _hard_cancel(self, pending: _Pending, now: float) -> None:
        """Escalation stage 1: trip the query's token.

        The drive polls it between values and, every few statements,
        inside a running target call, so any query still making
        progress ends ``cancelled`` at its next checkpoint — including
        one run with ``deadline_ms off``.
        """
        pending.client.token.trip("watchdog deadline")
        with pending.lock:
            pending.hard_cancelled_at = now
            if pending.done:
                return
        self.hard_cancels += 1
        self._count("serve_watchdog_hard_cancels_total")
        self._server_event("hard_cancel", client=pending.client.client_id,
                           request=pending.request_id)

    def _declare_worker_lost(self, pending: _Pending) -> None:
        """Escalation stage 2: the worker never reached a checkpoint
        (it is blocked in a backend call that polls nothing).

        Crash-only recovery: settle the session's leases on the
        worker's behalf (restores any pending snapshot, releases the
        RW lock, poisons the session), answer the client, and replace
        the lost worker thread so the pool keeps its size.  The zombie
        thread may wake later; ``finish_pending`` being idempotent
        means it can no longer send frames or double-release anything,
        and its loop exits once it finds itself replaced.
        """
        conn = pending.conn
        settled = self.sessions.reclaim(pending.client)
        first = conn.finish_pending(pending)
        if not first:
            return                     # the worker won the race after all
        self.workers_lost += 1
        self._count("serve_workers_lost_total")
        self._server_event("worker_lost", client=pending.client.client_id,
                           request=pending.request_id, leases=settled)
        if pending.idem is not None:
            pending.client.idem_abandon(pending.idem)
        self._count("serve_outcome_cancelled_total")
        lost_frame = protocol.terminal(
            pending.request_id, "cancelled",
            {"values": 0, "kind": "watchdog",
             "diagnostic": "(stopped: worker lost past watchdog "
                           "deadline, session poisoned)"})
        lost_frame["trace"] = pending.trace_id
        conn.send(lost_frame)
        lost = pending.worker_thread
        if lost is not None and lost in self._worker_threads:
            self._worker_threads.remove(lost)
            self._spawn_worker()
        self._gauge_sync()

    # -- durability: checkpoints, recovery, simulated crash ------------------
    def _checkpoint_loop(self) -> None:
        while not self._watchdog_stop.wait(self.checkpoint_interval):
            try:
                self.checkpoint()
            except Exception:          # a checkpoint bug must not kill
                self._count("serve_checkpoint_errors_total")  # serving

    def checkpoint(self) -> Optional[int]:
        """Write one durable checkpoint; returns its journal lsn.

        Under the RW *write* lock (no query is mutating the target,
        no write record can be appended): rotate the journal — the
        returned lsn is the checkpoint's high-water mark and every
        later record lands in segments truncation will not touch —
        then serialize the target snapshot and the session table.
        The lock is released before the (comparatively slow) disk
        write; only after the checkpoint is durably renamed into
        place are the sealed segments it supersedes deleted.
        """
        store = self.store
        if store is None or self._crashed:
            return None
        rw = self.sessions._rw
        rw.acquire_write()
        try:
            ckpt_lsn = store.journal.rotate()
            snap = target_snapshot.take(self.sessions.program).serialize()
            table = self.sessions.export_state()
        finally:
            rw.release_write()
        store.write_checkpoint(ckpt_lsn, {"lsn": ckpt_lsn,
                                          "snapshot": snap,
                                          "sessions": table})
        removed = store.journal.truncate_sealed()
        self.checkpoints += 1
        self._count("serve_checkpoints_total")
        self._server_event("checkpoint", lsn=ckpt_lsn,
                           sessions=len(table), segments_removed=removed)
        return ckpt_lsn

    def _recover(self) -> None:
        """Rebuild target + sessions from checkpoint and journal.

        Runs before the listener binds, and runs no query: restore the
        checkpoint snapshot, fold the later journal records into the
        session table, apply each committed ``write`` record's delta in
        lsn order (the original apply order), park every surviving
        session.  An older state-dir format raises ``JournalError``.
        """
        store = self.store
        journal = store.journal
        program = self.sessions.program
        self._server_event("recover_begin",
                           torn=journal.recovered_torn_tail)
        if journal.recovered_torn_tail:
            self._count("serve_journal_torn_total")
            self._server_event("journal_torn")
        state: dict = {}
        ckpt_lsn = 0
        loaded = store.load_checkpoint()
        if loaded is not None:
            ckpt_lsn, payload = loaded
            try:
                snap = Snapshot.deserialize(payload["snapshot"], program)
                target_snapshot.restore(program, snap)
                state = {entry["key"]: entry
                         for entry in payload.get("sessions", [])}
            except (ValueError, KeyError, TypeError):
                # A checkpoint that will not deserialize is treated
                # like no checkpoint at all: fresh target, apply
                # whatever journal segments survive.
                state = {}
                ckpt_lsn = 0
                self._count("serve_checkpoint_errors_total")
        state, writes = fold_sessions(state, journal.replay(ckpt_lsn))
        for record in writes:
            target_snapshot.apply(program, unpack(record["delta"]))
        # Every resurrected session comes back *parked* — the crash
        # disconnected everybody — under its original resume key and
        # the full TTL.
        parked = sum(self.sessions.adopt_parked(
            self.sessions.resurrect(entry), self.resume_ttl)
            for entry in state.values())
        self.recovered_sessions = parked
        self.applied_writes = len(writes)
        self._count("serve_recovered_sessions_total", parked)
        self._count("serve_applied_writes_total", len(writes))
        self._server_event("recover_done", lsn=journal.lsn,
                           checkpoint_lsn=ckpt_lsn, sessions=parked,
                           writes=len(writes))
        self._gauge_sync()

    def simulate_crash(self) -> None:
        """Die the way SIGKILL would, in-process (chaos harness hook).

        No drain, no parking, no final checkpoint, no journal close:
        the listener and every client socket are torn down hard, the
        journal is poisoned (a straggler worker must never scribble
        on a state dir a restarted server has taken over), and the
        service threads are told to exit without any of the cleanup
        a real SIGKILL would skip.  Whatever reached the journal
        before this call is exactly what recovery gets.
        """
        self._crashed = True
        self._stopping = True
        if self.store is not None:
            self.store.journal.poison()
        self._watchdog_stop.set()
        tcp, self._tcp = self._tcp, None
        if tcp is not None:
            try:
                tcp.shutdown()
                tcp.server_close()
            except Exception:            # pragma: no cover - defensive
                pass
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            conn.alive = False
            conn.cancel_all("server crashed")
            conn.close_transport()
        for _ in self._worker_threads:
            try:
                self._queue.put_nowait(_STOP)
            except queue.Full:           # workers drain it anyway
                break
        self._worker_threads = []

    # -- connection handling ----------------------------------------------
    def _handle_connection(self, handler) -> None:
        try:
            handler.connection.settimeout(None)
            handler.connection.setsockopt(socket.IPPROTO_TCP,
                                          socket.TCP_NODELAY, 1)
            # Bound sends only (SO_SNDTIMEO, not settimeout: reads on
            # this socket must still block indefinitely for idle
            # clients).  See SEND_TIMEOUT.
            seconds = int(SEND_TIMEOUT)
            micros = int((SEND_TIMEOUT - seconds) * 1e6)
            handler.connection.setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDTIMEO,
                struct.pack("ll", seconds, micros))
        except (OSError, AttributeError):
            pass
        if self._stopping or self.connections() >= self.max_clients:
            try:
                handler.wfile.write(protocol.encode(
                    {"ev": "error",
                     "error": "server full" if not self._stopping
                     else "server shutting down"}))
                handler.wfile.flush()
            except OSError:
                pass
            self._count("serve_refused_connections_total")
            return
        # First frame must be a well-formed hello.
        try:
            first = None
            while first is None:
                raw = handler.rfile.readline(protocol.MAX_FRAME + 2)
                if not raw:
                    return
                if raw.strip() == b"":
                    continue
                if not raw.endswith(b"\n") and len(raw) > protocol.MAX_FRAME:
                    raise protocol.ProtocolError(
                        "unterminated oversized frame")
                first = protocol.decode(raw)
            if protocol.validate_request(first) != "hello":
                raise protocol.ProtocolError("first frame must be 'hello'")
            if first["version"] != protocol.PROTOCOL_VERSION:
                raise protocol.ProtocolError(
                    f"unsupported protocol version {first['version']} "
                    f"(server speaks {protocol.PROTOCOL_VERSION})")
        except protocol.ProtocolError as error:
            self.protocol_errors += 1
            self._count("serve_protocol_errors_total")
            try:
                handler.wfile.write(protocol.encode(
                    {"ev": "error", "error": str(error)}))
                handler.wfile.flush()
            except OSError:
                pass
            return
        with self._conns_lock:
            self._client_seq += 1
            seq = self._client_seq
        name = first.get("client") or f"client-{seq}"
        client_id = f"{name}#{seq}"
        resumed = False
        client = None
        resume_key = first.get("resume")
        if resume_key:
            client = self.sessions.resume(resume_key, client_id)
            resumed = client is not None
        if client is None:
            client = self.sessions.open(client_id)
        conn = _Connection(client, handler.wfile, self,
                           sock=handler.connection)
        with self._conns_lock:
            self._conns.add(conn)
        self._count("serve_connections_total")
        if resumed:
            self._count("serve_resumes_total")
            self._server_event("session_resumed", client=client_id,
                               generation=client.generation)
        self._gauge_sync()
        conn.welcomed = conn.send(protocol.welcome(
            client_id, version=protocol.PROTOCOL_VERSION,
            limits=dict(client.session.governor.limits),
            per_client=self.per_client,
            resume=client.resume_key, resumed=resumed))
        try:
            self._serve_frames(conn,
                               protocol.read_frames_budgeted(handler.rfile))
        except protocol.ProtocolError as error:
            self.protocol_errors += 1
            self._count("serve_protocol_errors_total")
            conn.send({"ev": "error", "error": str(error)})
        except OSError:
            pass
        finally:
            conn.alive = False
            conn.cancel_all("client disconnected")
            with self._conns_lock:
                self._conns.discard(conn)
            if (conn.clean_bye or self._stopping or client.poisoned
                    or not conn.welcomed or self.resume_ttl <= 0):
                # The session object dies with the connection; its
                # aliases and governor state are unreachable
                # afterwards, which is the isolation contract.
                self.sessions.close(client.client_id)
            elif self.sessions.park(client, self.resume_ttl):
                self._count("serve_parked_total")
                self._server_event("session_parked",
                                   client=client.client_id,
                                   reason="reaped" if conn.reaped
                                   else "disconnect")
            self._gauge_sync()

    def _serve_frames(self, conn: _Connection, frames) -> None:
        """The connection thread's read loop (control ops run inline).

        ``frames`` yields dicts *or* :class:`~repro.serve.protocol.
        ProtocolError` instances (the budgeted reader); each malformed
        frame is answered with a structured ``error`` frame carrying
        the running count, and the connection is dropped once
        :data:`~repro.serve.protocol.MALFORMED_BUDGET` is spent.
        """
        malformed = 0

        def charge(error) -> bool:
            nonlocal malformed
            malformed += 1
            self.protocol_errors += 1
            self._count("serve_protocol_errors_total")
            conn.send({"ev": "error", "error": str(error),
                       "malformed": malformed,
                       "budget": protocol.MALFORMED_BUDGET})
            if malformed >= protocol.MALFORMED_BUDGET:
                conn.send({"ev": "bye",
                           "reason": "malformed-frame budget exhausted"})
                return False
            return True

        for item in frames:
            conn.touch()
            if isinstance(item, protocol.ProtocolError):
                if not charge(item):
                    return
                continue
            try:
                op = protocol.validate_request(item)
            except protocol.ProtocolError as error:
                if not charge(error):
                    return
                continue
            if op == "bye":
                conn.clean_bye = True
                conn.send({"ev": "bye"})
                return
            if op == "hello":
                conn.send({"ev": "error",
                           "error": "already said hello"})
                continue
            if op == "duel":
                self._admit(conn, item)
            elif op == "accesses":
                self._admit(conn, item, access=True)
            elif op == "cancel":
                self._op_cancel(conn, item)
            elif op == "alias":
                self._op_alias(conn, item)
            elif op == "limits":
                self._op_limits(conn, item)
            elif op == "stats":
                self._op_stats(conn, item)
            elif op == "statements":
                self._op_statements(conn, item)
            elif op == "health":
                self._op_health(conn, item)
            elif op == "ping":
                conn.send({"ev": "pong", "id": item["id"]})
            # op == "pong": touch() above already counted it as life.

    # -- admission control -------------------------------------------------
    def _reject(self, conn: _Connection, request_id: int, reason: str,
                **extra) -> None:
        self.rejected += 1
        self._count("serve_rejected_total")
        conn.send(protocol.rejected(request_id, reason, **extra))

    def _admit(self, conn: _Connection, frame: dict,
               access: bool = False) -> None:
        request_id = frame["id"]
        client = conn.client
        # Every duel op gets a trace id — client-supplied (already
        # validated) or server-assigned — echoed on every frame this
        # request produces, rejections included.
        trace_id = frame.get("trace")
        if trace_id is None:
            trace_id = make_trace_id()
        if self._stopping:
            self._reject(conn, request_id, "shutting down",
                         trace=trace_id)
            return
        if client.poisoned:
            self._reject(conn, request_id, "poisoned", trace=trace_id,
                         detail="a previous query's worker was lost; "
                                "reconnect to get a fresh session")
            return
        if client.inflight >= self.per_client:
            self._reject(
                conn, request_id, "busy", trace=trace_id,
                detail=f"client already has {client.inflight} "
                       f"quer{'y' if client.inflight == 1 else 'ies'} "
                       f"in flight (cap {self.per_client})")
            return
        # Degraded mode: while the breaker is open, classify the query
        # and refuse writes.  The closed-breaker hot path pays nothing.
        writes = None
        breaker = self.health.breaker
        if breaker.open:
            writes = self.sessions.classify(client, frame["text"])
            if writes and not breaker.allow_write():
                self._count("serve_degraded_rejections_total")
                self._reject(
                    conn, request_id, "degraded", trace=trace_id,
                    detail="target faulting: circuit breaker "
                           f"{breaker.state()}, writes rejected "
                           "(reads still served)")
                return
        # An ``accesses`` op has no values to replay, so no idempotency.
        idem = None if access else frame.get("idem")
        if idem is not None and not client.idem_start(idem):
            cached = client.idem_lookup(idem)
            if isinstance(cached, dict):
                self._replay_idem(conn, request_id, cached, trace_id)
            else:
                self._reject(conn, request_id, "busy", trace=trace_id,
                             detail=f"idempotent query {idem!r} is "
                                    "still in flight")
            return
        pending = _Pending(conn, client, request_id, frame["text"],
                           idem=idem, writes=writes, trace_id=trace_id,
                           profile=bool(frame.get("profile")),
                           access=access)
        conn.add_pending(pending)
        try:
            self._queue.put_nowait(pending)
        except queue.Full:
            conn.finish_pending(pending)
            if idem is not None:
                client.idem_abandon(idem)
            if writes and breaker.open:
                breaker.record_fault()    # release a claimed probe slot
            self._reject(
                conn, request_id, "overloaded", trace=trace_id,
                detail=f"query queue full ({self.queue_depth} deep)")
            return
        self._gauge_sync()

    def _replay_idem(self, conn: _Connection, request_id: int,
                     cached: dict, trace_id: Optional[str] = None) -> None:
        """Answer a retried idempotency token from the cache."""
        self._count("serve_idem_replays_total")
        lines = cached.get("lines") or []
        for start in range(0, len(lines), protocol.CHUNK):
            if not conn.send(protocol.value_frame(
                    request_id, lines[start:start + protocol.CHUNK],
                    trace=trace_id)):
                return
        frame = dict(cached["outcome"])
        frame["id"] = request_id
        frame["replayed"] = True
        if trace_id is not None:
            frame["trace"] = trace_id
        if cached.get("clipped"):
            frame["replay_truncated"] = True
        conn.send(frame)

    # -- control operations ------------------------------------------------
    def _op_cancel(self, conn: _Connection, frame: dict) -> None:
        pending = conn.find_pending(frame["target"])
        if pending is None:
            conn.send({"ev": "cancel", "id": frame["id"],
                       "target": frame["target"], "found": False})
            return
        pending.cancel()
        self._count("serve_cancels_total")
        conn.send({"ev": "cancel", "id": frame["id"],
                   "target": frame["target"], "found": True})

    def _op_alias(self, conn: _Connection, frame: dict) -> None:
        client = conn.client
        if not client.lock.acquire(timeout=1.0):
            conn.send(protocol.rejected(frame["id"], "busy",
                                        detail="a query is running"))
            return
        try:
            session = client.session
            aliases = {name: session.formatter.format(value)
                       for name, value in session.aliases().items()}
        finally:
            client.lock.release()
        conn.send({"ev": "alias", "id": frame["id"], "aliases": aliases})

    def _op_limits(self, conn: _Connection, frame: dict) -> None:
        governor = conn.client.session.governor
        name = frame.get("name")
        if name is not None:
            # Setting limits is allowed mid-query on purpose: raising
            # a deadline to rescue a long query is the use case.
            try:
                governor.set_limit(name, frame.get("value"))
            except ValueError as error:
                conn.send({"ev": "error", "id": frame["id"],
                           "error": str(error)})
                return
            self.sessions.note_limit(conn.client, name, frame.get("value"))
        conn.send({"ev": "limits", "id": frame["id"],
                   "limits": dict(governor.limits),
                   "policies": dict(governor.policies)})

    def _op_stats(self, conn: _Connection, frame: dict) -> None:
        client = conn.client
        conn.send({"ev": "stats", "id": frame["id"],
                   "query": dict(client.last_stats),
                   "client": {"queries": client.queries,
                              "inflight": client.inflight,
                              "generation": client.generation},
                   "server": {"clients": self.connections(),
                              "inflight": self.inflight(),
                              "queued": self.queued(),
                              "served": self.served,
                              "rejected": self.rejected,
                              "protocol_errors": self.protocol_errors,
                              "health": self.health.state(),
                              "breaker": self.health.breaker.state(),
                              "parked": self.sessions.parked_count(),
                              "reaped": self.reaped,
                              "hard_cancels": self.hard_cancels,
                              "workers_lost": self.workers_lost,
                              "slow_queries": self.slow_query_count,
                              "accesses": self.accesses_served,
                              "statements": len(self.statements)
                              if self.statements is not None else None,
                              "traces_exported": self.tracelog.exported
                              if self.tracelog is not None else None}})

    def _op_statements(self, conn: _Connection, frame: dict) -> None:
        """The fleet statement-statistics table, over the wire."""
        if self.statements is None:
            conn.send({"ev": "statements", "id": frame["id"],
                       "enabled": False, "rows": []})
            return
        rows = self.statements.snapshot(by=frame.get("by", "total_ms"),
                                        limit=frame.get("limit", 20))
        reply = {"ev": "statements", "id": frame["id"], "enabled": True,
                 "rows": rows}
        reply.update(self.statements.state())
        conn.send(reply)

    def _op_health(self, conn: _Connection, frame: dict) -> None:
        """Per-subsystem health detail, over the wire (ops console)."""
        reply = {"ev": "health", "id": frame["id"]}
        reply.update(self.health_detail())
        conn.send(reply)

    # -- query workers -----------------------------------------------------
    def _worker_loop(self) -> None:
        me = threading.current_thread()
        while True:
            item = self._queue.get()
            try:
                if item is _STOP:
                    return
                self._drive(item)
            finally:
                self._queue.task_done()
            if me not in self._worker_threads:
                return        # declared lost while wedged: replaced

    def _drive(self, pending: _Pending) -> None:
        conn = pending.conn
        if not pending.mark_started():
            if conn.finish_pending(pending):
                self._count("serve_outcome_cancelled_total")
                dropped = protocol.terminal(
                    pending.request_id, "cancelled",
                    {"values": 0,
                     "diagnostic": "(stopped: 0 values, interrupted)",
                     "kind": "cancel"})
                dropped["trace"] = pending.trace_id
                conn.send(dropped)
            return
        self.served += 1
        self._count("serve_queries_total")
        # Observability is all-or-nothing per query: one predicate
        # decides whether this request gets a span tree at all.
        trace = None
        if (self.tracelog is not None or self.statements is not None
                or self.slow_ms is not None or pending.profile):
            trace = RequestTrace(pending.trace_id,
                                 pending.client.resume_key,
                                 request_id=pending.request_id,
                                 text=pending.text)
            trace.span("admission_queue",
                       (pending.started_at - pending.admitted_at)
                       * 1000.0)
        stream_ms = 0.0
        batch: list[str] = []
        batch_bytes = 0
        values = 0
        request_id = pending.request_id
        outcome_frame = None
        record = None

        def send_values(batch: list) -> bool:
            nonlocal stream_ms
            if trace is None:
                return conn.send(protocol.value_frame(
                    request_id, batch, trace=pending.trace_id))
            t0 = time.monotonic()
            delivered = conn.send(protocol.value_frame(
                request_id, batch, trace=pending.trace_id))
            stream_ms += (time.monotonic() - t0) * 1000.0
            return delivered

        try:
            events = self.sessions.run(
                pending.client, pending.text, on_begin=pending.recheck,
                on_lock=(None if trace is None else
                         lambda kind, ms: trace.span("session_lock", ms,
                                                     mode=kind)),
                access=pending.access,
                # The engine's per-AST-node spans go to the trace
                # export; the session's sampling verdict decides
                # whether the query runs traced, so the per-pull cost
                # is diluted 1-in-N exactly like the export volume.
                # Explicit profile and accesses requests are forced.
                trace=pending.profile or self.tracelog is not None,
                force=pending.profile or pending.access,
                trace_id=pending.trace_id)
            for kind, payload in events:
                if kind != "value":
                    record = payload["record"]
                    outcome_frame = protocol.terminal(
                        request_id, kind, payload)
                    continue
                values += 1
                if pending.access:
                    # The accesses op answers with the locality
                    # profile; the values themselves stay home.
                    continue
                batch.append(payload)
                batch_bytes += len(payload)
                if pending.idem is not None:
                    pending.idem_note(payload)
                if len(batch) >= protocol.CHUNK \
                        or batch_bytes >= protocol.CHUNK_BYTES:
                    if not send_values(batch):
                        # Peer is gone: stop driving promptly.
                        pending.cancel("client disconnected")
                    batch = []
                    batch_bytes = 0
        except DuelError as error:
            # Escaped the drive (e.g. the session was poisoned between
            # admission and pickup): a faulted query, not a server bug.
            outcome_frame = protocol.terminal(
                request_id, "faulted",
                {"values": values, "error": str(error),
                 "error_type": type(error).__name__})
        except Exception as error:    # defensive: a drive bug must not
            outcome_frame = protocol.terminal(  # kill the worker
                request_id, "error",
                {"values": values, "error": f"internal error: {error}",
                 "error_type": type(error).__name__})
            self._count("serve_internal_errors_total")
        finally:
            first = conn.finish_pending(pending)
            if record is not None:
                pending.client.last_stats = record.stats
            if first:
                try:
                    if batch:
                        send_values(batch)
                    if outcome_frame is None:
                        outcome_frame = protocol.terminal(
                            request_id, "error",
                            {"values": values,
                             "error": "internal error: drive ended "
                                      "without a terminal event"})
                    outcome_frame["trace"] = pending.trace_id
                    if trace is not None:
                        self._finish_observe(pending, trace, record,
                                             stream_ms, outcome_frame)
                    # Count and report *before* sending: a fast client
                    # must never observe its terminal frame while the
                    # matching counter still reads the old value.
                    self._count(
                        f"serve_outcome_{outcome_frame['ev']}_total")
                    self._report_health(pending, outcome_frame)
                    self._settle_idem(pending, outcome_frame)
                    if pending.access:
                        self.accesses_served += 1
                        self._count("serve_accesses_total")
                        outcome_frame = _accesses_frame(outcome_frame)
                    conn.send(outcome_frame)
                except Exception:         # a reply we cannot frame must
                    self.protocol_errors += 1     # not kill the worker
                    self._count("serve_protocol_errors_total")
            else:
                if self.statements is not None and record is not None:
                    # The watchdog answered for a lost worker that has
                    # since finished: its query still counts once.
                    self.statements.observe(record)
                if pending.idem is not None:
                    # The watchdog already answered; our result is
                    # suspect.
                    pending.client.idem_abandon(pending.idem)
            self._gauge_sync()

    def _finish_observe(self, pending: _Pending, trace: RequestTrace,
                        record, stream_ms: float,
                        outcome_frame: dict) -> None:
        """Close out one traced request: spans, statements, slow log.

        Everything comes from the session's
        :class:`~repro.core.session.QueryRecord` (None when the drive
        never reached its terminal event).  Runs on the driving worker
        after the terminal frame is built and before it is sent; every
        failure here is contained by the caller's catch-all
        (observability must never cost a reply).
        """
        phases = record.phases if record is not None else {}
        if phases:
            trace.span("parse", phases["parse"])
            trace.span("drive", phases["eval"] + phases["format"],
                       eval=round(phases["eval"], 3),
                       format=round(phases["format"], 3))
        trace.span("stream", stream_ms)
        trace.outcome = outcome_frame["ev"]
        fp = record.fingerprint if record is not None else None
        if fp is not None:
            trace.fingerprint = fp.hash
            outcome_frame["fingerprint"] = fp.hash
        if record is not None and record.tracer is not None:
            trace.engine_spans = [span.as_dict()
                                  for span in record.tracer.spans]
        if pending.profile:
            outcome_frame["profile"] = {
                "trace_id": trace.trace_id,
                "spans": list(trace.spans),
                "engine_spans": list(trace.engine_spans),
            }
        if self.statements is not None and record is not None:
            serve_phases = trace.phase_ms()
            self.statements.observe(record, {
                name: serve_phases[name]
                for name in ("queue", "lock", "stream")
                if name in serve_phases})
        total_ms = trace.total_ms()
        slow = self.slow_ms is not None and total_ms >= self.slow_ms
        if slow:
            self.slow_query_count += 1
            self._count("serve_slow_queries_total")
            entry = {"trace_id": trace.trace_id,
                     "client": pending.client.client_id,
                     "request": pending.request_id,
                     "outcome": outcome_frame["ev"],
                     "wall_ms": round(total_ms, 3),
                     "text": pending.text}
            if fp is not None:
                entry["fingerprint"] = fp.hash
            self.slow_queries.append(entry)
            self._server_event("slow_query", **entry)
            if self.recorder is not None:
                try:
                    self.recorder.pin(
                        "slow_query",
                        {"trace": trace.as_dict(),
                         "threshold_ms": self.slow_ms})
                except Exception:
                    pass           # pinning must never cost a reply
        if self.tracelog is not None:
            # A drive that never reached its record tossed no coin.
            sampled = record.sampled if record is not None \
                else self.sampler is None
            self.tracelog.export(trace, sampled, slow)

    def _report_health(self, pending: _Pending, outcome_frame: dict) -> None:
        """Feed the circuit breaker from a terminal outcome."""
        breaker = self.health.breaker
        ev = outcome_frame["ev"]
        if ev == "faulted" \
                and outcome_frame.get("error_type") in TARGET_FAULT_TYPES:
            if breaker.record_fault():
                self._count("serve_breaker_trips_total")
                self._server_event("breaker_open",
                                   client=pending.client.client_id,
                                   error=outcome_frame.get("error"))
        elif pending.writes:          # a half-open probe reporting back
            if ev in ("done", "truncated"):
                if breaker.record_ok():
                    self._count("serve_breaker_closes_total")
                    self._server_event("breaker_closed",
                                       client=pending.client.client_id)
            elif breaker.open:
                # Inconclusive probe (cancelled, internal error): keep
                # the breaker open for another cooldown.
                breaker.record_fault()

    def _settle_idem(self, pending: _Pending, outcome_frame: dict) -> None:
        """Cache (or abandon) the result of an ``idem``-tagged query."""
        token = pending.idem
        if token is None:
            return
        if outcome_frame["ev"] in ("done", "truncated", "cancelled",
                                   "faulted"):
            stored = {key: value for key, value in outcome_frame.items()
                      if key != "id"}
            result = {"lines": pending.idem_lines,
                      "clipped": pending.idem_clipped,
                      "outcome": stored}
            pending.client.idem_store(token, result)
            # Journal the completed entry so a token retried across a
            # server restart is still answered from the cache —
            # exactly-once spans the crash.
            self.sessions.note_idem(pending.client, token, result)
        else:
            # Internal errors are not results; let a retry re-run.
            pending.client.idem_abandon(token)


def run_server(ns, program, limit_kwargs: dict, out,
               ready=None, stop_event=None) -> int:
    """Boot a :class:`DuelServer` from parsed CLI flags and block.

    Reuses every unattended-observability flag the REPL grew in PRs
    2–4 — ``--query-log`` / ``--dump-dir`` / ``--metrics-port`` now
    aggregate *across clients* — and announces the bound endpoints on
    ``out`` (flushed line by line, so wrappers like
    ``scripts/serve_smoke.py`` can scrape the ports).  Blocks until
    SIGINT/SIGTERM (or ``stop_event``), then drains gracefully; a
    *second* SIGINT during the drain requests a fast drain (every
    in-flight query's token tripped immediately) instead of killing
    the process mid-cleanup.  ``ready`` (a ``threading.Event``) is set
    once serving, for embedders.
    """
    import signal

    from repro.obs.metrics import registry as process_registry
    from repro.obs.statements import StatementStats
    from repro.obs.trace import Sampler
    from repro.serve.journal import JournalError

    metrics = process_registry()
    # Fleet statement statistics are always on in serve mode: the
    # aggregation is bounded and lock-cheap, and a service without
    # per-shape latency answers is flying blind.
    statements = StatementStats()
    # Each resource joins the stack as it opens, so every exit — a
    # setup error below or the end of serving — closes all of them.
    with contextlib.ExitStack() as resources:
        try:
            qlog = recorder = tracelog = accesslog = None
            sampler = Sampler(ns.trace_sample) \
                if getattr(ns, "trace_sample", 1) > 1 else None
            if ns.query_log:
                from repro.obs.qlog import QueryLog
                qlog = QueryLog(ns.query_log,
                                fsync=getattr(ns, "query_log_fsync", False))
                resources.callback(qlog.close)
            if ns.dump_dir:
                import os

                from repro.obs.recorder import FlightRecorder
                os.makedirs(ns.dump_dir, exist_ok=True)
                recorder = FlightRecorder(dump_dir=ns.dump_dir)
            if getattr(ns, "trace_json", None):
                from repro.obs.reqtrace import TraceLog
                tracelog = TraceLog(ns.trace_json)
                resources.callback(tracelog.close)
            if getattr(ns, "access_trace", None):
                from repro.obs.access import AccessLog
                accesslog = AccessLog(ns.access_trace)
                resources.callback(accesslog.close)
            session_kwargs = dict(limit_kwargs)
            session_kwargs["symbolic"] = not ns.no_symbolic
            page_cache = getattr(ns, "page_cache_policy", None)
            if page_cache is not None:
                session_kwargs["page_cache"] = page_cache
            server = DuelServer(
                program, host=ns.host, port=ns.port,
                workers=ns.workers, queue_depth=ns.queue_depth,
                max_clients=ns.max_clients, per_client=ns.per_client,
                session_kwargs=session_kwargs,
                metrics=metrics, qlog=qlog, recorder=recorder,
                statements=statements, tracelog=tracelog,
                accesslog=accesslog, sampler=sampler,
                slow_ms=getattr(ns, "slow_ms", None),
                drain_timeout=ns.drain_timeout,
                heartbeat_interval=getattr(ns, "heartbeat_interval", 10.0),
                heartbeat_timeout=getattr(ns, "heartbeat_timeout", 30.0),
                resume_ttl=getattr(ns, "resume_ttl", 60.0),
                breaker_threshold=getattr(ns, "breaker_threshold", 5),
                breaker_window=getattr(ns, "breaker_window", 30.0),
                breaker_cooldown=getattr(ns, "breaker_cooldown", 10.0),
                state_dir=getattr(ns, "state_dir", None),
                journal_fsync=getattr(ns, "journal_fsync", "interval:1.0"),
                checkpoint_interval=getattr(ns, "checkpoint_interval", 30.0),
                commit_writes=getattr(ns, "commit_writes", False))
            if server.store is not None:
                # Closed by server.stop() after serving; this closes a
                # store whose server never started (closing is
                # idempotent).
                resources.callback(server.store.close)
            if ns.metrics_port is not None:
                from repro.obs.exposition import MetricsServer
                metrics_server = MetricsServer(
                    metrics, port=ns.metrics_port,
                    health=server.health.healthz,
                    collectors=(statements.prometheus_lines,
                                statements.prometheus_target_lines))
                resources.callback(metrics_server.stop)
                mport = metrics_server.start()
                out.write(f"metrics: http://127.0.0.1:{mport}/metrics\n")
            port = server.start()
        except (OSError, ValueError, JournalError) as error:
            out.write(f"error: {error}\n")
            return 1
        if server.store is not None:
            out.write(f"state: {getattr(ns, 'state_dir', None)} "
                      f"(recovered {server.recovered_sessions} sessions, "
                      f"applied {server.applied_writes} writes)\n")
        out.write(f"serving on {ns.host}:{port}\n")
        try:
            out.flush()
        except (AttributeError, OSError):
            pass
        stopper = stop_event if stop_event is not None \
            else threading.Event()

        def request_stop(signum=None, frame=None):
            # First signal: begin the graceful drain.  A second signal
            # while draining escalates to a fast drain (cancel
            # everything) instead of raising KeyboardInterrupt
            # mid-cleanup.
            if stopper.is_set():
                server.request_fast_drain()
            stopper.set()

        previous = {}
        for signame in ("SIGINT", "SIGTERM"):
            signum = getattr(signal, signame, None)
            if signum is None:
                continue
            try:
                previous[signum] = signal.signal(signum, request_stop)
            except ValueError:            # not the main thread
                pass
        if ready is not None:
            ready.set()
        exit_code = 0
        try:
            stopper.wait()
        except Exception as error:
            # An unhandled main-loop exception is a server crash: leave
            # a black box (flight-recorder post-mortem) before dying,
            # then still run the drain so clients get a bye when
            # possible.
            exit_code = 1
            if recorder is not None:
                try:
                    path = recorder.dump("server_crash", metrics=metrics)
                    out.write(f"post-mortem dump: {path}\n")
                except Exception:
                    pass
            out.write(f"fatal: {type(error).__name__}: {error}\n")
        finally:
            out.write("draining...\n")
            try:
                out.flush()
            except (AttributeError, OSError):
                pass
            try:
                # The handlers stay installed through the drain so a
                # second SIGINT reaches request_stop (fast drain),
                # never KeyboardInterrupt.
                server.stop()
            finally:
                for signum, handler in previous.items():
                    try:
                        signal.signal(signum, handler)
                    except ValueError:
                        pass
            out.write(f"served {server.served} queries "
                      f"({server.rejected} rejected)\n")
        return exit_code


def main(argv=None) -> int:
    """``duel-serve``: the standalone server CLI.

    Shares flags (and the target bootstrap) with ``python -m repro
    --serve``; this entry point just forces ``--serve`` on.
    """
    import sys
    from repro.cli import main as cli_main
    args = list(argv) if argv is not None else sys.argv[1:]
    return cli_main(["--serve", *args])


if __name__ == "__main__":  # pragma: no cover
    import sys
    raise SystemExit(main(sys.argv[1:]))
