"""DuelSession: the ``duel`` command.

"The duel command is similar to gdb's print command, except that the
duel command drives its expression argument and prints all of its
values."  A session compiles an input line, drives the resulting
generator tree, and renders one output line per produced value in the
paper's format::

    x[3] = 7
    hash[42]->scope = 7

Display rule reconstructed from the paper's sessions: expressions that
mention no program state (no names — pure constant expressions like
``(1..3)+(5,9)`` or ``1 + (double)3/2``) print their values joined on
one line (``6 10 7 11 8 12``, ``2.500``); anything touching the target
prints one ``sym = value`` line per value.  A value whose symbolic
expression renders identically to the value (reductions) also prints
bare.

Aliases persist across ``duel`` commands within a session, as in the
original.
"""

from __future__ import annotations

import operator
import threading
from collections import OrderedDict
from time import perf_counter_ns
from typing import Iterator, Optional

from repro.core import nodes as N
from repro.core.errors import (DuelCancelled, DuelDepthError, DuelError,
                               DuelSyntaxError, DuelTruncation)
from repro.core.eval import _KEEP_DEFAULT, EvalOptions, Evaluator
from repro.core.format import ValueFormatter
from repro.core.lexer import TokenStream, shape
from repro.core.parser import DuelParser, literal
from repro.core.symbolic import DEFAULT_FOLD
from repro.core.values import DuelValue
from repro.obs.access import DEFAULT_PAGE_SIZE, AccessLog, advise
from repro.obs.metrics import MetricsRegistry, registry as process_registry
from repro.obs.qlog import QueryLog, classify
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import QueryTracer, RingBufferSink, Sampler, TraceSink


#: Prepared query texts, and compiled statement shapes, a session keeps
#: (least recently used evicted).  At 256, replaying the seed-1
#: benchmark streams, 73% of ``interactive`` and 58% of ``served``
#: queries find their text already prepared, and 99.96% and 99.6%
#: their shape.
PREPARED_MAX = 256
#: Query texts :attr:`DuelSession.history` keeps (oldest dropped).
HISTORY_MAX = 1000


class Prepared:
    """One query text, prepared by :meth:`DuelSession.prepare`.

    Holds what every later query of the same text reuses: the AST
    (shared, so nothing may change it),
    whether driving it can mutate the target (``side_effects``: the
    rollback snapshot and the served write lock depend on it), whether
    it mentions program state (``mentions_state``: constants-only
    queries print their values on one line), and the statement
    fingerprint, computed on first use and shared by every
    :class:`QueryRecord` of the text.  An entry instantiated from its
    statement shape's ``template`` shares all three with it (the
    fingerprint once either is asked for it), since literals change
    none of them.
    """

    __slots__ = ("node", "side_effects", "mentions_state", "_fingerprint",
                 "_template")

    def __init__(self, node: N.Node, template: Optional[Prepared] = None):
        self.node = node
        self._fingerprint = None
        self._template = template
        if template is None:
            self.side_effects = _has_side_effects(node)
            self.mentions_state = _mentions_state(node)
        else:
            self.side_effects = template.side_effects
            self.mentions_state = template.mentions_state

    @property
    def fingerprint(self):
        if self._fingerprint is None:
            if self._template is not None:
                self._fingerprint = self._template.fingerprint
            else:
                from repro.obs.fingerprint import fingerprint
                self._fingerprint = fingerprint(self.node)
        return self._fingerprint


class _Shape:
    """A compiled statement shape, which later texts of the same shape
    are instantiated from instead of compiled (see
    :meth:`DuelSession.prepare`).

    ``literals`` holds each literal node of the template's AST, in
    token order, with its token's index and text; ``slices`` each
    stretch of raw source the AST copied (a declaration, a cast's or
    ``sizeof``'s type name), with its first and last token index.
    """

    __slots__ = ("prepared", "literals", "slices")

    def __init__(self, prepared: Prepared, stream: TokenStream):
        self.prepared = prepared
        self.literals = tuple((index, stream.tokens[index].text, node)
                              for index, node in stream.literals)
        self.slices = tuple((first, last, stream.source(first, last))
                            for first, last in stream.slices)

    def instantiate(self, stream: TokenStream) -> Optional[Prepared]:
        """The entry of ``stream``'s text, a text of this shape: the
        template's AST with each literal whose text differs rebuilt,
        and only its ancestors copied.  None when a source slice reads
        differently (``(char  *)p``) or a literal is malformed
        (``x[09]``): then the text must compile, and a malformed one
        raises the parser's own error."""
        for first, last, source in self.slices:
            if stream.source(first, last) != source:
                return None
        replaced: dict[int, N.Node] = {}
        for index, spelling, node in self.literals:
            token = stream.tokens[index]
            if token.text != spelling:
                try:
                    replaced[id(node)] = literal(token, stream.text)
                except DuelSyntaxError:
                    return None
        if not replaced:
            return self.prepared
        return Prepared(_substituted(self.prepared.node, replaced),
                        self.prepared)


class QueryRecord:
    """One finished query, frozen at its terminal event.

    :meth:`DuelSession.ievents` builds exactly one per query, hands it
    to each attached sink's ``observe(record)`` and carries it on the
    terminal payload (``info["record"]``); every view of the query
    renders from it, and nothing changes it once published.
    ``prepared`` is the text's :class:`Prepared` entry (None for a
    query that never compiled).  ``outcome`` is a qlog terminal
    event name, ``kind`` the governor verdict, ``error`` the exception
    that ended the query; ``stats``/``phases`` stay empty for a
    rejected query.  ``sampled`` is the query's one observation
    verdict (forced, or the session's sampler said yes): every
    in-depth view — engine tracer, access profile, the recorder's
    explain tree, a served request-trace export — follows it.
    ``access``/``access_records`` are an access-traced query's profile
    and raw records, ``string_cache`` its string-literal cache hit/miss
    deltas, ``session`` the session that ran it (post-mortems snapshot
    its metrics and limits).
    """

    __slots__ = ("session", "qid", "text", "prepared", "trace_id",
                 "sampled", "outcome", "kind", "values", "error", "stats",
                 "phases", "access", "access_records", "tracer",
                 "string_cache")

    def __init__(self, session, qid: Optional[int], text: str,
                 prepared: Optional[Prepared] = None,
                 trace_id: Optional[str] = None, error=None,
                 sampled: bool = True):
        self.session = session
        self.qid = qid
        self.text = text
        self.prepared = prepared
        self.trace_id = trace_id
        self.sampled = sampled
        self.outcome = "rejected"
        self.kind = None
        self.values = 0
        # A record outlives its drive: keep a query error, not the
        # drive's frames (and rollback snapshot) its traceback would
        # pin.  Any other exception propagates past the record, and
        # its traceback is what locates the defect.
        self.error = error.with_traceback(None) \
            if isinstance(error, DuelError) else error
        self.stats: dict = {}
        self.phases: dict = {}
        self.access: Optional[dict] = None
        self.access_records: list = []
        self.tracer: Optional[QueryTracer] = None
        self.string_cache = (0, 0)

    @property
    def node(self) -> Optional[N.Node]:
        prepared = self.prepared
        return prepared.node if prepared is not None else None

    @property
    def fingerprint(self):
        """The statement fingerprint (None for a query that never
        compiled), computed once per prepared text, on first use."""
        prepared = self.prepared
        return prepared.fingerprint if prepared is not None else None


class DuelSession:
    """An interactive DUEL evaluation session over one debugger backend.

    Parameters mirror the implementation switches discussed in the
    paper: ``symbolic`` turns derivation tracking off (it dominates
    evaluation cost), ``fold`` sets the ``->a->a`` folding threshold,
    and ``float_format`` controls double rendering (the paper prints
    ``2.500``; gdb prints ``2.5`` — default matches the paper).
    """

    def __init__(self, backend, symbolic: bool = True,
                 float_format: str = "%.3f", fold: int = DEFAULT_FOLD,
                 max_steps: int = 10_000_000, cycle_mode: str = "stop",
                 deadline_ms=_KEEP_DEFAULT,
                 max_lines=_KEEP_DEFAULT,
                 metrics: Optional[MetricsRegistry] = None):
        self.backend = backend
        self.options = EvalOptions(symbolic=symbolic, max_steps=max_steps,
                                   cycle_mode=cycle_mode,
                                   deadline_ms=deadline_ms,
                                   max_lines=max_lines)
        #: The per-query resource governor (limits, counters, ^C token).
        self.governor = self.options.governor
        self.evaluator = Evaluator(backend, self.options)
        self.parser = DuelParser(is_type_name=self.evaluator.is_type_name)
        self.formatter = ValueFormatter(self.evaluator.ops,
                                        float_format=float_format)
        self.evaluator.formatter = self.formatter
        self.fold = fold
        #: Executed query texts, newest last, the last
        #: :data:`HISTORY_MAX` of them (the paper's Discussion suggests
        #: a query history for re-issuing common queries).
        self.history: list[str] = []
        #: Named saved queries ("program-specific queries ... made by
        #: simply pointing and clicking" — here, by name).
        self.saved: dict[str, str] = {}
        #: Prepared queries, with their shape's key, by (text, typedef
        #: generation), and compiled statement shapes by (shape,
        #: typedef generation), least recently used first (see
        #: :meth:`prepare`).
        self._prepared: OrderedDict[tuple[str, int],
                                    tuple[Prepared, tuple]] = OrderedDict()
        self._shapes: OrderedDict[tuple[tuple, int], _Shape] = \
            OrderedDict()
        self._prepared_lock = threading.Lock()
        # Whose typedef names decide how a text parses: the session's
        # own (DUEL ``typedef`` declarations) and the target program's.
        program = getattr(backend, "program", None)
        self._type_envs = (self.evaluator.type_env,) + (
            (program.types,) if program is not None else ())
        #: Where cross-query aggregates land (default: the shared
        #: process-level registry; pass your own for isolation).
        self.metrics = metrics if metrics is not None \
            else process_registry()
        #: Decides which queries are observed in depth (engine tracer,
        #: access profile, recorder explain tree, served trace export):
        #: one coin per query, ``--trace-sample N``.  None observes
        #: every query.
        self.sampler: Optional[Sampler] = None
        #: Trace every sampled query (REPL ``trace on``).
        self.tracing = False
        #: Sink receiving trace events while :attr:`tracing` is on;
        #: None means a fresh in-memory ring per query.
        self.trace_sink: Optional[TraceSink] = None
        #: The :class:`QueryRecord` of the most recent :meth:`ievents`
        #: query (:meth:`duel`, :meth:`explain`, :meth:`accesses`).
        self.last_query: Optional[QueryRecord] = None
        # The sinks below (and :attr:`metrics`) each observe every
        # finished query's record; None = off at one predicate a query.
        #: Structured query log receiving one JSONL record per query
        #: lifecycle event (``--query-log`` / ``qlog on``).
        self.qlog: Optional[QueryLog] = None
        #: Flight recorder of recent completed queries.  Attaching one
        #: also traces every sampled query, so recorded entries (and
        #: post-mortem dumps) carry EXPLAIN profile trees.
        self.recorder: Optional[FlightRecorder] = None
        #: Statement-statistics table (``repro.obs.statements``).
        self.statements = None
        #: Memory-access profile exporter (``--access-trace``).  When
        #: attached, every sampled query runs access-traced.
        self.accesslog: Optional[AccessLog] = None
        #: Page size (bytes) access profiles aggregate locality at.
        self.access_page_size = DEFAULT_PAGE_SIZE
        self._format_ns = 0

    # -- compiling ------------------------------------------------------
    def compile(self, text: str,
                stream: Optional[TokenStream] = None) -> N.Node:
        """Parse one DUEL input line into an AST.

        The one function that parses query text; queries reach it
        through :meth:`prepare`, which calls it once per statement
        shape and passes the text's tokens, already lexed, as
        ``stream``: the parse reports its literals there, and a wrapper
        that does not pass it on leaves the text's shape uncompiled."""
        return self.parser.parse(text, stream)

    def prepare(self, text: str) -> Prepared:
        """The :class:`Prepared` entry for ``text``.

        Two tables each keep the :data:`PREPARED_MAX` most recently
        used entries: prepared texts, probed first, and compiled
        statement shapes.  A text not prepared yet is lexed and looked
        up by its shape, its tokens with each literal standing as a
        placeholder of its kind (:func:`~repro.core.lexer.shape`), so
        ``x[3]`` and ``x[4]`` share one.  A known shape instantiates
        its template, the AST with the changed literals rebuilt; only
        a new shape calls :meth:`compile`.  Using a text also uses its
        shape.

        Both tables are also keyed on the typedef generations of the
        session's and the target's type environments: whether ``(T)x``
        is a cast depends on the typedef names known when it was
        parsed.  A text that fails to parse raises and is not kept; so
        does one too deep to prepare (a :class:`DuelDepthError`).
        Safe to call from two threads at once (a served session
        classifies queries outside its client lock): the tables are
        locked, lexing and parsing are not.
        """
        generations = sum(env.typedef_generation for env in self._type_envs)
        key = (text, generations)
        texts, shapes = self._prepared, self._shapes
        with self._prepared_lock:
            found = texts.get(key)
            if found is not None:
                texts.move_to_end(key)
                entry, shape_key = found
                if shape_key in shapes:
                    shapes.move_to_end(shape_key)
                return entry
        stream = TokenStream(text)
        shape_key = (shape(stream.tokens), generations)
        with self._prepared_lock:
            template = shapes.get(shape_key)
            if template is not None:
                shapes.move_to_end(shape_key)
        try:
            entry = template.instantiate(stream) if template is not None \
                else None
        except RecursionError:        # a flat chain thousands deep
            raise DuelDepthError() from None
        if entry is None:
            entry = Prepared(self.compile(text, stream))
            # A compile wrapper that drops ``stream`` parses a stream of
            # its own, and leaves this one with no literals to re-spell.
            template = _Shape(entry, stream) if stream.i else None
        else:
            template = None
        with self._prepared_lock:
            _remember(texts, key, (entry, shape_key))
            if template is not None:
                _remember(shapes, shape_key, template)
        return entry

    # -- evaluation -------------------------------------------------------
    def eval(self, text: str) -> list[DuelValue]:
        """Drive ``text`` and collect every produced value."""
        return list(self.ieval(text))

    def ieval(self, text: str, record: bool = True) -> Iterator[DuelValue]:
        """Drive ``text`` lazily (``record=False`` keeps it out of
        :attr:`history`)."""
        node = self.prepare(text).node
        if record:
            self._record(text)
        self.evaluator.reset()
        yield from self.evaluator.eval(node)

    def _record(self, text: str) -> None:
        history = self.history
        if not history or history[-1] != text:
            history.append(text)
            if len(history) > HISTORY_MAX:
                del history[0]

    def eval_values(self, text: str, record: bool = True):
        """Raw Python values (ints/floats/addresses) of ``text``
        (``record=False``: a debugger check, kept out of
        :attr:`history`)."""
        ops = self.evaluator.ops
        return [ops.load(v) for v in self.ieval(text, record)]

    # -- printing ------------------------------------------------------------
    def format_line(self, v: DuelValue) -> str:
        """One output line for a produced value: ``sym = value``."""
        value_text = self.formatter.format(v)
        if not self.options.symbolic:
            return value_text
        sym_text = v.sym.render(self.fold)
        if sym_text == value_text or sym_text == "?":
            return value_text
        return f"{sym_text} = {value_text}"

    def eval_lines(self, text: str) -> list[str]:
        """All output lines for one ``duel`` command (paper format).

        Constant-only expressions produce a single space-joined line of
        values, reproducing the paper's ``duel (1..3)+(5,9)`` session.
        """
        return list(self.ieval_lines(text))

    def ieval_lines(self, text: str) -> Iterator[str]:
        """Output lines, produced lazily as the generator tree drives."""
        prepared = self.prepare(text)
        self._record(text)
        self.evaluator.reset()
        yield from self._lines(prepared)

    def _lines(self, prepared: Prepared) -> Iterator[str]:
        """Output lines, metered: every printed value charges the
        governor's output quota and hits a cancellation/deadline
        checkpoint, so even a target-free ``1..`` can be stopped.
        A truncation mid-stream keeps the partial output (the
        constants-only joined line included) and carries the produced
        count out on the exception for the diagnostic line."""
        values = self.evaluator.eval(prepared.node)
        governor = self.governor
        clock = perf_counter_ns
        produced = 0
        try:
            if self.options.symbolic and not prepared.mentions_state:
                texts: list[str] = []
                try:
                    for v in values:
                        governor.checkpoint()
                        governor.charge("lines")
                        t0 = clock()
                        texts.append(self.formatter.format(v))
                        self._format_ns += clock() - t0
                        produced += 1
                except DuelTruncation:
                    if texts:
                        yield " ".join(texts)
                    raise
                if texts:
                    yield " ".join(texts)
                return
            for v in values:
                governor.checkpoint()
                governor.charge("lines")
                t0 = clock()
                line = self.format_line(v)
                self._format_ns += clock() - t0
                produced += 1
                yield line
        except DuelTruncation as truncation:
            if truncation.produced is None:
                truncation.produced = produced
            raise

    def ievents(self, text: str, on_begin=None, access: bool = False,
                trace: bool = False, force: bool = False,
                trace_id: Optional[str] = None,
                isolated: bool = False) -> Iterator[tuple]:
        """Drive one query as a stream of ``(kind, payload)`` events.

        The one query lifecycle — governor, qlog, tracer, sinks,
        failed-query rollback — as a lazy event stream, so a front end
        that is *not* a terminal (the ``repro.serve`` query service)
        can multiplex queries without re-implementing it; :meth:`duel`,
        :meth:`explain` and :meth:`accesses` all render it.  Events, in
        order:

        ``("value", line)``
            one per output line, produced as the generator tree drives;
        exactly one terminal event closing the query:
            ``("done", info)`` — drained completely;
            ``("truncated", info)`` / ``("cancelled", info)`` — a
            governor limit or the cancel token stopped it; partial
            values stand and ``info["diagnostic"]`` holds the one-line
            notice; effects stand too, unless the stop landed inside
            a target call, which rolls the whole query back;
            ``("faulted", info)`` — a mid-drive :class:`DuelError`
            (side effects rolled back, ``info["error"]`` set; a tree
            too deep for the Python stack is a
            :class:`DuelDepthError`; any other exception is rolled
            back and recorded as a fault too, then re-raised instead
            of yielded);
            ``("error", info)`` — the text never compiled
            (``info["error"]`` set, nothing was driven).

        ``info`` always carries ``values`` (lines actually produced)
        and ``record``, the query's :class:`QueryRecord` — frozen and
        already observed by every attached sink before the terminal
        event is yielded — and, for driven queries, its
        ``stats``/``phases``.  ``on_begin`` (when given) runs after the
        governor reset but before the first value is pulled — the
        serve layer uses it to close the race between a ``cancel``
        frame and query start.

        Whether the query is observed in depth is decided once, here:
        ``force=True`` (``explain``, ``accesses``, a profiled served
        request) says yes, otherwise the session's :attr:`sampler`
        tosses its coin (no sampler: yes).  An observed query runs the
        engine tracer when ``trace=True`` (the caller wants its span
        tree), :attr:`tracing` is on or a recorder is attached, and
        records its target accesses when ``access=True`` or an access
        log is attached; the verdict rides on the record as
        ``record.sampled``.  ``trace_id`` is the wire trace id the
        record carries.  With ``isolated=True`` the caller's own
        snapshot undoes the query (the serve layer's write lease), so
        the session takes none.
        """
        self.governor.begin_query()
        sampler = self.sampler
        sampled = force or sampler is None or sampler.sample()
        qlog = self.qlog
        qid = qlog.begin(text, "generator") if qlog is not None else None
        t0 = perf_counter_ns()
        try:
            prepared = self.prepare(text)
        except DuelError as error:
            record = self._publish(QueryRecord(self, qid, text,
                                               trace_id=trace_id,
                                               error=error,
                                               sampled=sampled))
            yield ("error", {"values": 0, "error": str(error),
                             "error_type": type(error).__name__,
                             "record": record})
            return
        parse_ns = perf_counter_ns() - t0
        node = prepared.node
        if qid is not None:
            qlog.parsed(qid, parse_ns / 1e6, node)
        self._record(text)
        if on_begin is not None:
            on_begin()
        tracer = self._attach_tracer(node, text, trace, access) \
            if sampled else None
        checkpoint = None if isolated else self._checkpoint_for(prepared)
        self.evaluator.reset()
        baseline = self._stats_baseline()
        produced = 0
        failure = None
        drive_t0 = perf_counter_ns()
        try:
            for line in self._lines(prepared):
                produced += 1
                yield ("value", line)
        except DuelTruncation as truncation:
            failure = truncation
            if truncation.produced is not None:
                produced = truncation.produced
            if truncation.in_call:
                # A target call stopped half-way leaves the target in
                # no consistent state: the whole query rolls back.
                self._restore(checkpoint)
        except GeneratorExit:
            # The consumer abandoned the stream mid-drive (a serve
            # worker unwound, a client vanished): that is a
            # cancellation in the audit trail, never a clean drain.
            failure = DuelCancelled("drive abandoned")
            raise
        except Exception as error:
            # Any other exception that ends the drive is a fault: the
            # side effects roll back and the record says what ended
            # it.  A tree too deep for the Python stack is a query
            # error; any other that is not (a defect below the
            # evaluator) still propagates once recorded.
            failure = DuelDepthError() if isinstance(error, RecursionError) \
                else error
            self._restore(checkpoint)
            if not isinstance(failure, DuelError):
                raise
        finally:
            record = self._publish(self._finish_query(
                QueryRecord(self, qid, text, prepared, trace_id, failure,
                            sampled),
                tracer, baseline, parse_ns, perf_counter_ns() - drive_t0))
        info: dict = {"values": produced, "stats": record.stats,
                      "phases": record.phases, "record": record}
        if record.kind is not None:
            info["kind"] = record.kind
        if record.access is not None:
            info["access"] = record.access
            if access:
                # Explicitly requested profiles (the ``accesses``
                # command/op) carry the advisor sweep; sampled ones
                # stay cheap.
                info["advisor"] = advise(record.access_records)
        outcome = record.outcome
        if outcome == "drained":
            yield ("done", info)
        elif outcome in ("truncated", "cancelled"):
            info["diagnostic"] = failure.diagnostic(produced)
            yield (outcome, info)
        else:
            info["error"] = str(failure)
            info["error_type"] = type(failure).__name__
            yield ("faulted", info)

    def duel(self, text: str, out=None) -> None:
        """The gdb ``duel`` command: evaluate and print — robustly.

        Drives the expression lazily, printing each value as it is
        produced, so a ``DuelError`` mid-drive still reports every
        partial result already yielded before the error line.  For
        side-effecting queries (assignments, increments, target calls,
        declarations) a target snapshot is taken first and restored on
        error, so a failed query never leaves the debuggee
        half-mutated; the session stays usable either way.

        A governor limit tripping under the ``truncate`` policy (or a
        ^C on the cancel token) is *not* an error: driving stops, the
        partial results stand — effects already applied are kept, as
        under the paper's gdb ^C, unless the stop lands inside a
        target call, which rolls the query back — and one diagnostic
        line reports what stopped the query and how to raise the
        limit.

        This is the terminal rendering of :meth:`ievents`: values
        print as they stream, truncations print their diagnostic,
        faults print the error line.
        """
        import sys
        stream = out if out is not None else sys.stdout
        for kind, payload in self.ievents(text):
            if kind == "value":
                stream.write(payload + "\n")
            elif kind in ("truncated", "cancelled"):
                stream.write(payload["diagnostic"] + "\n")
            elif kind in ("faulted", "error"):
                stream.write(payload["error"] + "\n")

    def explain(self, text: str, out=None) -> None:
        """Run ``text`` traced and print its per-node profile tree.

        The query is :meth:`ievents` with the engine tracer forced on
        — quotas, rollback, truncation and every attached sink apply
        exactly as under :meth:`duel` — but the output lines are
        swallowed; what prints instead is the annotated AST profile
        (pulls, yields, time share, attributed target reads per node)
        and a one-line summary, the REPL's ``explain`` command.  A
        query that never compiled, or nested too deeply to evaluate,
        prints its error alone: there is no tree worth showing.
        """
        import sys
        from repro.obs.explain import profile_footer, render_profile
        stream = out if out is not None else sys.stdout
        for kind, info in self.ievents(text, trace=True, force=True):
            pass
        record = info["record"]
        if kind == "error" or isinstance(record.error, DuelDepthError):
            stream.write(info["error"] + "\n")
            return
        for line in render_profile(record.node, record.tracer):
            stream.write(line + "\n")
        stats = record.stats
        stream.write(profile_footer(stats.get("lines", 0),
                                    stats.get("wall_ms", 0.0), stats) + "\n")
        note = info.get("diagnostic", info.get("error"))
        if note is not None:
            stream.write(note + "\n")

    # -- per-query accounting ------------------------------------------------
    def _attach_tracer(self, node: N.Node, text: str, trace: bool,
                       access: bool) -> Optional[QueryTracer]:
        """A fresh engine tracer for an observed query, or None when
        nothing wants one.

        ``trace on`` hands its events to :attr:`trace_sink`
        (``--trace-json``) and otherwise keeps only the span tree,
        which ``last_query`` holds; the flight recorder rings a short
        tail (post-mortems want span aggregates plus the last events);
        ``trace`` alone wants only the span tree, and an access-traced
        query (``access`` or an access log) keeps its access ring on
        the same tracer.
        """
        access = access or self.accesslog is not None
        if self.tracing and self.trace_sink is not None:
            sink = self.trace_sink
        elif self.recorder is not None:
            sink = RingBufferSink(self.recorder.ring_capacity)
        elif self.tracing or trace or access:
            sink = None
        else:
            return None
        tracer = QueryTracer(sink, access)
        tracer.begin(node, text)
        self.evaluator.set_tracer(tracer)
        return tracer

    def accesses(self, text: str) -> dict:
        """Drive ``text`` access-traced; report where its reads went.

        The REPL ``accesses`` command and the ``accesses`` wire op:
        the query runs through the full recovering :meth:`ievents`
        drive (governor, rollback, qlog — everything applies), output
        lines are swallowed, and the result describes the target
        traffic instead: the access profile (stride histogram,
        classification, page locality) plus the prefetch advisor's
        projected hit rates for the recorded trace.
        """
        for kind, info in self.ievents(text, access=True, force=True):
            pass
        record = info["record"]
        result: dict = {"outcome": kind, "values": info["values"]}
        for key in ("diagnostic", "error", "error_type",
                    "access", "advisor"):
            if key in info:
                result[key] = info[key]
        if record.fingerprint is not None:
            result["fingerprint"] = record.fingerprint.hash
        return result

    def _stats_baseline(self) -> tuple:
        """Cumulative counters sampled at query start (deltas later)."""
        backend = self.evaluator.backend
        evaluator = self.evaluator
        self._format_ns = 0
        return (backend.reads, backend.writes, backend.calls,
                backend.allocs, evaluator.scope.lookup_count,
                evaluator.string_cache_hits, evaluator.string_cache_misses)

    def _finish_query(self, record: QueryRecord, tracer,
                      baseline: tuple, parse_ns: int,
                      drive_ns: int) -> QueryRecord:
        """Freeze the clock, detach the tracer, complete ``record``.

        Fills in the outcome, the governor counters plus the query's
        target-traffic and lookup deltas, the phase split
        and the access profile — so identical back-to-back queries
        report identical per-query stats (wall time aside).
        """
        self.governor.end_query()
        evaluator = self.evaluator
        if tracer is not None:
            tracer.finish()
            evaluator.set_tracer(None)
            record.tracer = tracer
            if tracer.access_ring is not None:
                record.access_records = tracer.access_records()
                record.access = tracer.access_profile(
                    self.access_page_size)
        backend = evaluator.backend
        reads0, writes0, calls0, allocs0, lookups0, hits0, misses0 = \
            baseline
        stats = self.governor.stats()
        stats["reads"] = backend.reads - reads0
        stats["writes"] = backend.writes - writes0
        stats["calls"] = backend.calls - calls0
        stats["allocs"] = backend.allocs - allocs0
        stats["lookups"] = evaluator.scope.lookup_count - lookups0
        record.stats = stats
        format_ns = self._format_ns
        record.phases = {"parse": parse_ns / 1e6,
                         "eval": max(drive_ns - format_ns, 0) / 1e6,
                         "format": format_ns / 1e6}
        record.string_cache = (evaluator.string_cache_hits - hits0,
                               evaluator.string_cache_misses - misses0)
        failure = record.error
        record.outcome, record.kind = classify(failure)
        # The governor's lines counter includes the charge that tripped
        # the quota; the truncation knows how many values actually made
        # it out, and that is what the record should say.
        produced = getattr(failure, "produced", None)
        record.values = produced if produced is not None \
            else stats.get("lines", 0)
        return record

    def _publish(self, record: QueryRecord) -> QueryRecord:
        """Make ``record`` the last query and hand it to every sink —
        metrics first, the recorder last, so a post-mortem the
        recorder dumps already counts this query."""
        self.last_query = record
        for sink in (self.metrics, self.qlog, self.statements,
                     self.accesslog, self.recorder):
            if sink is not None:
                sink.observe(record)
        return record

    @property
    def last_fingerprint(self):
        """Fingerprint of the most recent query (None if it never
        compiled, or before the first one)."""
        record = self.last_query
        return record.fingerprint if record is not None else None

    # -- failed-query rollback ----------------------------------------------
    def _checkpoint_for(self, prepared: Prepared):
        """Snapshot the target before a query that could mutate it.

        Only possible when the backend exposes its program (the
        simulator and the fault-injecting wrapper do); other backends
        simply skip rollback.
        """
        if not prepared.side_effects:
            return None
        program = getattr(self.backend, "program", None)
        if program is None:
            return None
        from repro.target import snapshot
        return (program, snapshot.take(program))

    def _restore(self, checkpoint) -> None:
        if checkpoint is None:
            return
        program, snap = checkpoint
        from repro.target import snapshot
        snapshot.restore(program, snap)
        self.evaluator.invalidate_target_caches()

    def values_line(self, text: str) -> str:
        """Space-joined value texts, the paper's constants-only display.

        The paper's opening examples show ``duel (1..3)+(5,9)`` printing
        ``6 10 7 11 8 12`` ("the examples ... omitted the symbolic
        output"); this helper reproduces that presentation.
        """
        return " ".join(self.formatter.format(v) for v in self.ieval(text))

    # -- saved queries (paper Discussion: editable query history) -----------
    def save_query(self, name: str, text: str) -> None:
        """Name a query for later re-issue (validated eagerly, and
        prepared, so a re-issue skips the parse)."""
        self.prepare(text)
        self.saved[name] = text

    def run_saved(self, name: str) -> list[str]:
        """Re-issue a saved query by name; returns its output lines.

        Routed through the recovering :meth:`duel` drive — exactly like
        the REPL's ``!name`` path — so a saved query that faults or
        truncates mid-drive still returns the lines it produced (plus
        the error or truncation diagnostic) instead of raising away
        the partial results.
        """
        if name not in self.saved:
            raise KeyError(f"no saved query named {name!r}")
        import io
        buffer = io.StringIO()
        self.duel(self.saved[name], out=buffer)
        return buffer.getvalue().splitlines()

    # -- alias management ------------------------------------------------------
    def clear_aliases(self) -> None:
        """Drop all debugger aliases (x := ... definitions)."""
        self.evaluator.scope.clear_aliases()

    def aliases(self) -> dict[str, DuelValue]:
        return self.evaluator.scope.aliases()

    @property
    def lookup_count(self) -> int:
        """Total symbol lookups performed (benchmark P2)."""
        return self.evaluator.scope.lookup_count


def _remember(table: OrderedDict, key, entry) -> None:
    """Insert into a prepared table, evicting past :data:`PREPARED_MAX`
    (the caller holds the table lock)."""
    table[key] = entry
    if len(table) > PREPARED_MAX:
        table.popitem(last=False)


def _substituted(node: N.Node, replaced: dict) -> N.Node:
    """``node`` with each node whose id ``replaced`` holds swapped for
    its replacement: a node is copied only when one of its kids comes
    back changed, and every other subtree is shared."""
    found = replaced.get(id(node))
    if found is not None:
        return found
    fields = vars(node)
    changed = {}
    for name, value in fields.items():
        if isinstance(value, N.Node):
            new = _substituted(value, replaced)
        elif type(value) is tuple:              # a call's arguments
            new = tuple([_substituted(arg, replaced) for arg in value])
            if all(map(operator.is_, new, value)):
                new = value
        else:
            continue
        if new is not value:
            changed[name] = new
    if not changed:
        return node
    copy = object.__new__(type(node))
    copy.__dict__ = {**fields, **changed}
    return copy


def _has_side_effects(node: N.Node) -> bool:
    """True when evaluating the AST can mutate the target.

    Assignments and increments write memory; calls run target code;
    declarations and string literals allocate target scratch space.
    """
    for n in N.walk(node):
        if isinstance(n, (N.Assign, N.IncDec, N.Call, N.Declaration,
                          N.StringLiteral)):
            return True
    return False


def _mentions_state(node: N.Node) -> bool:
    """True when the AST refers to any name/alias/declaration.

    Pure constant expressions are displayed without symbolics, matching
    every constants-only session in the paper.
    """
    for n in N.walk(node):
        if isinstance(n, (N.Name, N.Underscore, N.Declaration, N.Define,
                          N.IndexAlias, N.StringLiteral, N.FrameExpr)):
            return True
    return False
