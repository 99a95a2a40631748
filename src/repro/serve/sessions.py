"""Session multiplexing over one shared target program.

Every connected client gets its own
:class:`~repro.core.session.DuelSession` — and with it a private
alias namespace, governor, and limits — over the *same*
:class:`~repro.target.program.TargetProgram`.  Two hazards follow
from sharing the target, and this module owns both:

**Torn reads.**  The simulator mutates region bytes, heap bookkeeping
and symbol tables in many small steps; a reader racing a writer could
observe half a mutation.  All query execution therefore goes through
a readers–writer lock: read-only queries run concurrently, queries
that can mutate the target (assignments, increments, target calls,
declarations — the same ``side_effects`` fact of the session's
:class:`~repro.core.session.Prepared` query the rollback machinery
uses) run exclusively.

**Cross-client corruption.**  Even a *successful* write query must
not leak into other clients' reads: the service promises each client
an isolated view of the stopped inferior.  Side-effecting queries get
*snapshot isolation*: under the write lock the manager takes a
:func:`repro.target.snapshot.take` checkpoint, drives the query — the
query's own output sees its effects, exactly like a private copy of
the target — and restores the checkpoint before the lock is
released.  That snapshot is the query's only one, and a fault-injected
crash mid-write is covered by the same restore, so one client's
disaster is invisible to the rest.

The paper's single-user REPL semantics (writes persist across
queries) remain available in-process; the serve layer deliberately
trades them for isolation, the way a debugging *service* must.

Fault tolerance adds three more responsibilities:

**Crash-only cleanup.**  Every query's lock-and-snapshot state lives
in a :class:`QueryLease` registered with the manager, and *settling*
a lease (restore the snapshot, release the lock) is idempotent —
whoever gets there first wins.  The normal path settles in the
drive's ``finally``; when the server's watchdog declares a worker
lost (wedged in a backend call that ignores cancellation), it settles
the lease on the worker's behalf via :meth:`SessionManager.reclaim`,
so a killed worker can never leak the RW lock or a pending snapshot
restore.  A reclaimed session is *poisoned* — its zombie thread might
still wake inside the shared target — and refuses further queries.

**Session parking.**  A client that vanishes abnormally (network
fault, heartbeat reap) gets its session *parked* for a bounded TTL,
keyed by the resume key issued in ``welcome``; a reconnect presenting
the key re-attaches the same session — aliases, limits, idempotency
cache intact.  Parking is bounded in count and swept by the server's
watchdog, so dead sessions are reliably released.

**Idempotency.**  Each session carries a bounded cache of completed
``idem``-tagged queries; the server consults it before admission so a
retried side-effecting query is replayed from the cache, never
applied twice.
"""

from __future__ import annotations

import secrets
import threading
import time
from collections import OrderedDict
from typing import Callable, Iterator, Optional

from repro.core.session import DuelSession
from repro.serve.journal import pack
from repro.target import snapshot
from repro.target.interface import SimulatorBackend


class ReadWriteLock:
    """A writer-preferring readers–writer lock.

    Many readers may hold the lock at once; a writer waits for the
    readers to drain and excludes everyone.  Pending writers block new
    readers (writer preference), so a stream of cheap read queries
    cannot starve a write query forever.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._waiting_writers = 0

    # -- reader side -------------------------------------------------------
    def acquire_read(self, timeout: Optional[float] = None) -> bool:
        with self._cond:
            ok = self._cond.wait_for(
                lambda: not self._writer and not self._waiting_writers,
                timeout)
            if ok:
                self._readers += 1
            return ok

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    # -- writer side -------------------------------------------------------
    def acquire_write(self, timeout: Optional[float] = None) -> bool:
        with self._cond:
            self._waiting_writers += 1
            try:
                ok = self._cond.wait_for(
                    lambda: not self._writer and self._readers == 0,
                    timeout)
                if ok:
                    self._writer = True
                return ok
            finally:
                self._waiting_writers -= 1

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()


#: Completed idempotent results remembered per session (LRU).
IDEM_CACHE_MAX = 16

#: Output bytes cached per idempotent result; a replay of a bigger
#: result ships what fits plus a ``replay_truncated`` marker.
IDEM_LINES_BYTES = 1 << 20

#: Sentinel marking an idempotency token whose query is in flight.
IDEM_RUNNING = object()


class ClientSession:
    """One client's private DUEL session over the shared program.

    ``lock`` serializes query execution on the underlying
    :class:`DuelSession` (sessions are not reentrant); ``inflight``
    counts admitted-but-unfinished queries for the per-client
    admission cap.  The session's governor token is the cancellation
    handle ``cancel`` frames and disconnects trip.

    Fault-tolerance state: ``resume_key`` names this session across
    reconnects (returned in ``welcome``, presented in a later
    ``hello``); ``generation`` counts how many conversations have
    attached to it; the idempotency cache lives behind
    :meth:`idem_lookup` / :meth:`idem_start` / :meth:`idem_store`;
    ``poisoned`` flags a session whose worker was force-reclaimed.
    """

    def __init__(self, client_id: str, session: DuelSession,
                 resume_key: Optional[str] = None):
        self.client_id = client_id
        self.session = session
        self.lock = threading.Lock()
        self.inflight = 0
        self.queries = 0
        # Recovery passes the journaled key back in so a session
        # resurrected after a server restart answers to the exact
        # resume key its client already holds.
        self.resume_key = resume_key or secrets.token_hex(16)
        self.generation = 1
        self.poisoned = False
        #: Alias values as last journaled, and the scope's bind count then.
        self.journaled_aliases: dict = {}
        self.journaled_binds = 0
        #: Stats of this client's latest served query (``stats`` op).
        self.last_stats: dict = {}
        self._idem_lock = threading.Lock()
        self._idem: OrderedDict[str, object] = OrderedDict()

    @property
    def token(self):
        return self.session.governor.token

    # -- idempotency cache -------------------------------------------------
    def idem_lookup(self, token: str):
        """The cached result dict, :data:`IDEM_RUNNING`, or None."""
        with self._idem_lock:
            found = self._idem.get(token)
            if found is not None and found is not IDEM_RUNNING:
                self._idem.move_to_end(token)
            return found

    def idem_start(self, token: str) -> bool:
        """Claim ``token`` for a fresh run; False when already known."""
        with self._idem_lock:
            if token in self._idem:
                return False
            self._idem[token] = IDEM_RUNNING
            return True

    def idem_store(self, token: str, result: dict) -> None:
        """Cache the terminal ``result`` of a completed idem query."""
        with self._idem_lock:
            self._idem[token] = result
            self._idem.move_to_end(token)
            while len(self._idem) > IDEM_CACHE_MAX:
                oldest = next(iter(self._idem))
                if self._idem[oldest] is IDEM_RUNNING:
                    # Never evict an in-flight claim; drop the next
                    # completed entry instead.
                    for key, value in self._idem.items():
                        if value is not IDEM_RUNNING:
                            del self._idem[key]
                            break
                    else:      # pragma: no cover - all running
                        break
                else:
                    del self._idem[oldest]

    def idem_abandon(self, token: str) -> None:
        """Forget an in-flight claim whose run never finished."""
        with self._idem_lock:
            if self._idem.get(token) is IDEM_RUNNING:
                del self._idem[token]

    def idem_export(self) -> dict:
        """Every *completed* cache entry (checkpoint payload)."""
        with self._idem_lock:
            return {token: result for token, result in self._idem.items()
                    if result is not IDEM_RUNNING}

    def idem_restore(self, entries: dict) -> None:
        """Refill the cache from journaled/checkpointed entries."""
        for token, result in entries.items():
            if isinstance(result, dict):
                self.idem_store(token, result)


class QueryLease:
    """Crash-only record of one query's lock-and-snapshot state.

    Created *after* the RW lock is acquired (and, for writes, the
    snapshot taken); :meth:`settle` undoes both exactly once no matter
    how many parties call it — the driving worker's ``finally``, the
    watchdog reclaiming a lost worker, or both racing.
    """

    __slots__ = ("manager", "client", "kind", "checkpoint",
                 "created_at", "_lock", "_settled", "forced")

    def __init__(self, manager: "SessionManager", client: ClientSession,
                 kind: str, checkpoint=None):
        self.manager = manager
        self.client = client
        self.kind = kind
        self.checkpoint = checkpoint
        self.created_at = time.monotonic()
        self._lock = threading.Lock()
        self._settled = False
        #: True when the settle came from reclaim, not the worker.
        self.forced = False

    def settle(self, forced: bool = False) -> bool:
        """Restore + release, idempotently; True for the first caller."""
        return self._end(self._restore, forced)

    def commit(self, on_commit=None) -> bool:
        """Keep the write's effects: release *without* restoring.

        The commit-writes counterpart of :meth:`settle` — same
        claim-once discipline (a racing forced settle wins cleanly and
        the commit reports False, so a reclaimed worker can never
        journal a write whose effects were rolled back).  ``on_commit``
        runs while the RW write lock is still held: the journal append
        goes there, making journal order exactly target apply order.
        Nothing needs invalidating — no state was rewound, so every
        session's target-resident caches stay valid.
        """
        return self._end(on_commit)

    def _restore(self) -> None:
        if self.checkpoint is not None:
            snapshot.restore(self.manager.program, self.checkpoint)
            self.client.session.evaluator.invalidate_target_caches()

    def _end(self, action, forced: bool = False) -> bool:
        """Claim the lease once, run ``action``, release the lock."""
        with self._lock:
            if self._settled:
                return False
            self._settled = True
            self.forced = forced
        manager = self.manager
        try:
            if action is not None:
                action()
        finally:
            if self.kind == "write":
                manager._rw.release_write()
            else:
                manager._rw.release_read()
            manager._unregister(self)
        return True


class SessionManager:
    """Creates, tracks, and runs per-client sessions over one target.

    ``session_factory`` builds one :class:`DuelSession` per client
    (the default attaches a fresh :class:`SimulatorBackend` to the
    shared program with ``session_kwargs``); ``qlog``, ``recorder``,
    ``accesslog`` and ``metrics`` — when given — are sinks shared by
    every session, as is ``sampler``, the one head-sampling coin,
    which is exactly why those subsystems are lock-guarded.
    """

    #: Most sessions parked for resume at once (oldest evicted).
    PARK_MAX = 64

    def __init__(self, program, *, session_kwargs: Optional[dict] = None,
                 metrics=None, qlog=None, recorder=None,
                 session_factory: Optional[Callable[[], DuelSession]] = None,
                 journal=None, commit_writes: bool = False,
                 accesslog=None, sampler=None):
        self.program = program
        self._session_kwargs = dict(session_kwargs or {})
        self._metrics = metrics
        #: Session attribute name -> shared sink or sampler (None =
        #: not shared).
        self._sinks = {"qlog": qlog, "recorder": recorder,
                       "accesslog": accesslog, "sampler": sampler}
        self._session_factory = session_factory
        #: The write-ahead :class:`~repro.serve.journal.Journal` (None
        #: when running without ``--state-dir``): session lifecycle,
        #: idempotency entries and committed writes are appended so a
        #: restarted server can rebuild everything this manager holds.
        self.journal = journal
        #: When True, a side-effecting query that drains to ``done``
        #: *keeps* its effects on the shared target (durable REPL
        #: semantics) instead of being rolled back (snapshot
        #: isolation, the default).
        self.commit_writes = commit_writes
        self._rw = ReadWriteLock()
        self._lock = threading.Lock()
        self._sessions: dict[str, ClientSession] = {}
        #: Parked sessions awaiting resume: key -> (expiry, session).
        self._parked: "OrderedDict[str, tuple[float, ClientSession]]" \
            = OrderedDict()
        self._leases: set[QueryLease] = set()
        self._lease_lock = threading.Lock()

    # -- session lifecycle -------------------------------------------------
    def _make_session(self) -> DuelSession:
        """A fresh client session with the shared sinks attached."""
        if self._session_factory is not None:
            session = self._session_factory()
        else:
            kwargs = dict(self._session_kwargs)
            if self._metrics is not None:
                kwargs.setdefault("metrics", self._metrics)
            session = DuelSession(SimulatorBackend(self.program), **kwargs)
        for name, sink in self._sinks.items():
            if sink is not None:
                setattr(session, name, sink)
        return session

    def page_cache_policy(self):
        """The page-cache policy sessions are built with (or None).

        Normalized the same way :class:`~repro.core.session.
        DuelSession` normalizes its ``page_cache`` argument, so the
        health surface reports the policy actual sessions run under.
        Factory-built sessions (tests) report None — the factory owns
        their configuration.
        """
        policy = self._session_kwargs.get("page_cache")
        if isinstance(policy, str):
            from repro.target.pagecache import parse_policy
            policy = parse_policy(policy)
        return policy

    def _journal_append(self, kind: str, **fields) -> None:
        if self.journal is not None:
            self.journal.append(kind, **fields)

    def open(self, client_id: str) -> ClientSession:
        """Create (or return) the client's session."""
        with self._lock:
            found = self._sessions.get(client_id)
            created = found is None
            if created:
                found = ClientSession(client_id, self._make_session())
                self._sessions[client_id] = found
        if created:
            self._journal_append(
                "sess_open", key=found.resume_key, client=client_id,
                limits=dict(found.session.governor.limits))
        return found

    def close(self, client_id: str) -> None:
        """Drop the client's session (its aliases die with it)."""
        with self._lock:
            found = self._sessions.pop(client_id, None)
        if found is not None:
            self._journal_append("sess_close", key=found.resume_key)

    def note_limit(self, client: ClientSession, name: str, value) -> None:
        """Journal a governor limit change (server control op hook)."""
        self._journal_append("sess_limit", key=client.resume_key,
                             name=name, value=value)

    def note_idem(self, client: ClientSession, token: str,
                  result: dict) -> None:
        """Journal a completed idempotency-cache entry."""
        self._journal_append("idem", key=client.resume_key, token=token,
                             result=result)

    def get(self, client_id: str) -> Optional[ClientSession]:
        with self._lock:
            return self._sessions.get(client_id)

    def count(self) -> int:
        with self._lock:
            return len(self._sessions)

    # -- parking & resume (reconnect support) -------------------------------
    def park(self, client: ClientSession, ttl: float) -> bool:
        """Detach ``client`` but keep it resumable for ``ttl`` seconds.

        Called on *abnormal* disconnect (never on a clean ``bye``);
        bounded by :data:`PARK_MAX` with oldest-first eviction, so a
        reconnect storm cannot hoard sessions.  Poisoned sessions are
        never parked — their state is suspect by definition.
        """
        evicted = []
        with self._lock:
            self._sessions.pop(client.client_id, None)
            if ttl <= 0 or client.poisoned:
                parked = False
            else:
                while len(self._parked) >= self.PARK_MAX:
                    _, (_, oldest) = self._parked.popitem(last=False)
                    evicted.append(oldest)
                self._parked[client.resume_key] = (time.monotonic() + ttl,
                                                   client)
                parked = True
        for oldest in evicted:
            self._journal_append("sess_close", key=oldest.resume_key)
        if parked:
            self._journal_append("sess_park", key=client.resume_key)
        else:
            self._journal_append("sess_close", key=client.resume_key)
        return parked

    def resume(self, resume_key: str,
               client_id: str) -> Optional[ClientSession]:
        """Re-attach a parked session under a new connection id."""
        with self._lock:
            entry = self._parked.pop(resume_key, None)
            if entry is None:
                return None
            expiry, client = entry
            if time.monotonic() > expiry:
                expired = client
            else:
                expired = None
                client.client_id = client_id
                client.generation += 1
                client.inflight = 0
                self._sessions[client_id] = client
        if expired is not None:
            self._journal_append("sess_close", key=expired.resume_key)
            return None
        self._journal_append("sess_resume", key=resume_key,
                             client=client_id)
        return client

    def sweep_parked(self) -> int:
        """Drop parked sessions past their TTL; returns how many."""
        now = time.monotonic()
        with self._lock:
            expired = [key for key, (expiry, _) in self._parked.items()
                       if now > expiry]
            for key in expired:
                del self._parked[key]
        for key in expired:
            self._journal_append("sess_close", key=key)
        return len(expired)

    def parked_count(self) -> int:
        with self._lock:
            return len(self._parked)

    # -- durability (checkpoint export / crash recovery) ---------------------
    def export_state(self) -> list[dict]:
        """Every live session's durable state (checkpoint payload).

        Called by the checkpointer while it holds the RW write lock,
        so no query is mutating limits-affecting state mid-export.
        Poisoned sessions are skipped — their state is suspect by
        definition, exactly as :meth:`park` refuses them.
        """
        with self._lock:
            everyone = list(self._sessions.values()) + \
                [client for _, client in self._parked.values()]
        exported = []
        for client in everyone:
            if client.poisoned:
                continue
            exported.append({
                "key": client.resume_key,
                "client_id": client.client_id,
                "limits": dict(client.session.governor.limits),
                "aliases": client.session.aliases(),
                "idem": client.idem_export(),
            })
        return exported

    def resurrect(self, entry: dict) -> ClientSession:
        """Rebuild one session from its journaled/checkpointed state.

        Recovery-only: a fresh :class:`ClientSession` under the
        *original* resume key with its limits, alias values and
        idempotency cache, for :meth:`adopt_parked`.  Nothing here runs
        a query or journals: the journal (or the checkpoint) still
        holds the records that described this session.
        """
        client = ClientSession(entry["client_id"] or "recovered",
                               self._make_session(),
                               resume_key=entry["key"])
        governor = client.session.governor
        for name, value in (entry.get("limits") or {}).items():
            try:
                governor.set_limit(name, value)
            except (ValueError, KeyError):
                continue
        scope = client.session.evaluator.scope
        for name, value in (entry.get("aliases") or {}).items():
            scope.alias(name, value)
        client.journaled_aliases = scope.aliases()
        client.journaled_binds = scope.binds
        client.idem_restore(entry.get("idem") or {})
        return client

    def adopt_parked(self, client: ClientSession, ttl: float) -> bool:
        """Insert a resurrected session directly into the parked table.

        Unlike :meth:`park` this journals nothing — recovery must not
        re-journal state the journal just taught it.
        """
        if ttl <= 0:
            return False
        with self._lock:
            while len(self._parked) >= self.PARK_MAX:
                self._parked.popitem(last=False)
            self._parked[client.resume_key] = (time.monotonic() + ttl,
                                               client)
        return True

    # -- lease bookkeeping (crash-only cleanup) ------------------------------
    def _register(self, lease: QueryLease) -> None:
        with self._lease_lock:
            self._leases.add(lease)

    def _unregister(self, lease: QueryLease) -> None:
        with self._lease_lock:
            self._leases.discard(lease)

    def active_leases(self) -> list[QueryLease]:
        with self._lease_lock:
            return list(self._leases)

    def reclaim(self, client: ClientSession) -> int:
        """Settle every lease ``client`` holds, on its worker's behalf.

        The watchdog's last resort for a worker that reached no
        checkpoint after its token was tripped (blocked in a backend
        call that polls nothing): restores any pending snapshot,
        releases the RW lock, and poisons the session (the zombie
        thread may still wake inside the shared target, so the
        session must never run another query).  Returns the number of
        leases actually settled.
        """
        client.poisoned = True
        settled = 0
        for lease in self.active_leases():
            if lease.client is client and lease.settle(forced=True):
                settled += 1
        return settled

    # -- query execution ---------------------------------------------------
    def classify(self, client: ClientSession, text: str) -> bool:
        """True when ``text`` can mutate the target (needs isolation).

        A text that does not compile is classified read-only: the
        drive will surface the parse error itself, and an unparsed
        query cannot write anything.  A text that does compile stays
        prepared, so the drive that follows does not parse it again.
        """
        try:
            return client.session.prepare(text).side_effects
        except Exception:
            return False

    def run(self, client: ClientSession, text: str, on_lock=None,
            **drive) -> Iterator[tuple]:
        """Drive one query with isolation; yields ``ievents`` events.

        Read-only queries share the target under the read lock;
        side-effecting queries take the write lock, a snapshot, drive
        with their effects visible to themselves, and restore before
        releasing — snapshot isolation.  Both paths hold their
        lock-and-snapshot state in a registered :class:`QueryLease`
        whose idempotent ``settle`` runs in the ``finally`` — and can
        equally be run by :meth:`reclaim` if this worker is lost — so
        a crash, an abandoned generator, or a lost worker can never
        leak the lock or a half-mutated target.

        ``on_lock(kind, ms)``, when given, is called once the query
        holds its locks (and, for writes, its isolation snapshot) with
        ``kind`` ``"read"``/``"write"`` and the milliseconds spent
        acquiring — the serve layer's ``session_lock`` span source.
        ``drive`` passes through to :meth:`DuelSession.ievents`
        (``on_begin``, ``access``, ``trace``, ``force``, ``trace_id``).
        """
        if client.poisoned:
            from repro.core.errors import DuelTargetError
            raise DuelTargetError(
                "session poisoned: a previous query's worker was "
                "forcibly reclaimed; reconnect with a fresh session")
        writes = self.classify(client, text)
        lock_t0 = time.monotonic() if on_lock is not None else 0.0
        with client.lock:
            client.queries += 1
            if writes:
                self._rw.acquire_write()
                try:
                    checkpoint = snapshot.take(self.program)
                except BaseException:
                    self._rw.release_write()
                    raise
                lease = QueryLease(self, client, "write", checkpoint)
            else:
                self._rw.acquire_read()
                lease = QueryLease(self, client, "read")
            if on_lock is not None:
                on_lock("write" if writes else "read",
                        (time.monotonic() - lock_t0) * 1000.0)
            self._register(lease)
            terminal = None
            try:
                # The lease's snapshot isolates the query.
                for event in client.session.ievents(text, isolated=True,
                                                    **drive):
                    if event[0] != "value":
                        terminal = event[0]
                    yield event
            finally:
                journal = self.journal
                committed = False
                if writes and self.commit_writes and terminal == "done":
                    # Durable REPL semantics: a fully drained write
                    # keeps its effects.  Its record (the delta against
                    # the lease's snapshot, and the aliases it bound)
                    # is appended under the still-held write lock, so
                    # journal order is target apply order; a racing
                    # forced settle wins the claim and nothing is
                    # journaled.  A ``truncated`` write rolls back.
                    committed = lease.commit(
                        on_commit=None if journal is None else
                        lambda: journal.append(
                            "write", key=client.resume_key, text=text,
                            delta=pack(snapshot.delta(self.program,
                                                      lease.checkpoint)),
                            **self._rebound(client)))
                if not committed:
                    lease.settle()
                    rebound = self._rebound(client)
                    if rebound:
                        journal.append("sess_alias", key=client.resume_key,
                                       **rebound)

    def _rebound(self, client: ClientSession) -> dict:
        """The aliases ``client``'s last query bound, as record fields
        (empty without a journal, or after one compare of the scope's
        bind count when the query bound none)."""
        scope = client.session.evaluator.scope
        if self.journal is None or scope.binds == client.journaled_binds:
            return {}
        client.journaled_binds = scope.binds
        journaled = client.journaled_aliases
        changed = {name: value for name, value in scope.aliases().items()
                   if journaled.get(name) is not value}
        journaled.update(changed)
        return {"aliases": pack(changed)} if changed else {}
