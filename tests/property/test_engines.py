"""Differential property test: the paper's state-machine engine and the
native generator engine must be observationally identical (A1)."""

from types import SimpleNamespace

import pytest
from hypothesis import example, given, strategies as st

from repro import DuelSession, SimulatorBackend, TargetProgram
from repro.core.errors import DuelTruncation
from repro.core.statemachine import StateMachineEvaluator
from repro.target import builder

#: The rig's per-query step budget (the steps limit truncates by
#: default).  A drawn expression can run for millions of steps —
#: ``(2 .. ((x[1] .. x[7]) .. (x[1] .. x[7])))`` runs about 8M, long
#: enough for the wall-clock deadline, not the step count, to decide
#: where each engine stops.  Under this budget both engines stop at
#: the same step (``test_engines_trip_step_budget_at_same_count``),
#: and the harnesses below compare what each produced up to it.
RIG_STEPS = 100_000

#: The draw that outran the deadline on one engine.
LONG_DRAW = "(2 .. ((x[1] .. x[7]) .. (x[1] .. x[7])))"


@pytest.fixture(scope="module")
def rig():
    program = TargetProgram()
    builder.int_array(program, "x", [3, -1, 7, 0, 12, -9, 2, 120, 5, -4])
    session = DuelSession(SimulatorBackend(program), max_steps=RIG_STEPS)
    return session, StateMachineEvaluator(session.evaluator)


def produced(values) -> list:
    """The values a drive yields before a step budget stops it."""
    kept = []
    try:
        for value in values:
            kept.append(value)
    except DuelTruncation:
        pass
    return kept


def both(rig, text):
    session, sm = rig
    node = session.compile(text)
    evaluator = session.evaluator
    ops = evaluator.ops
    evaluator.reset()
    generator = [ops.load(v) for v in produced(evaluator.eval(node))]
    evaluator.reset()
    machine = [ops.load(v) for v in produced(sm.iter_drive(node))]
    return generator, machine


# -- random expression generation over the SM-supported subset ----------
ints = st.integers(-9, 9)


def leaf():
    return st.one_of(
        ints.map(str),
        st.just("x[0]"),
        st.just("x[1]"),
        st.builds(lambda a, b: f"x[{abs(a) % 10}]", ints, ints),
    )


def combine(children):
    binop = st.sampled_from(["+", "-", "*", ",", ">?", "<?", "==?", "&&"])
    return st.one_of(
        st.tuples(binop, children, children).map(
            lambda t: f"({t[1]} {t[0]} {t[2]})"),
        st.tuples(children, children).map(
            lambda t: f"({t[0]} .. {t[1]})"),
        children.map(lambda c: f"(- {c})"),
        st.tuples(children, children).map(
            lambda t: f"(if ({t[0]}) {t[1]})"),
        st.tuples(children, children).map(
            lambda t: f"({t[0]} => {t[1]})"),
    )


expressions = st.recursive(leaf(), combine, max_leaves=8)


@given(text=expressions)
def test_engines_agree_on_random_expressions(rig, text):
    generator, machine = both(rig, text)
    assert generator == machine


@given(a=ints, b=ints, c=ints, d=ints)
def test_engines_agree_on_to_cross_products(rig, a, b, c, d):
    generator, machine = both(rig, f"(({a})..({b})) + (({c})..({d}))")
    assert generator == machine


@given(xs=st.lists(ints, min_size=1, max_size=6), c=ints)
def test_engines_agree_on_filters(rig, xs, c):
    alt = "(" + ",".join(map(str, xs)) + ")"
    generator, machine = both(rig, f"{alt} >? ({c})")
    assert generator == machine


def test_restartability_matches(rig):
    session, sm = rig
    node = session.compile("(1..3)+(5,9)")
    ops = session.evaluator.ops
    first = [ops.load(v) for v in sm.drive(node)]
    second = [ops.load(v) for v in sm.drive(node)]
    assert first == second == [6, 10, 7, 11, 8, 12]


# -- both engines charge the governor identically (PR: resource governor)

@given(text=expressions)
def test_engines_charge_identical_step_counts(rig, text):
    """Step accounting is engine-independent: a budget that stops one
    engine at value N stops the other at the same N."""
    session, sm = rig
    node = session.compile(text)
    evaluator = session.evaluator
    evaluator.reset()
    produced(evaluator.eval(node))
    generator_steps = session.governor.steps
    evaluator.reset()
    produced(sm.iter_drive(node))
    assert session.governor.steps == generator_steps


# -- both engines emit identical trace streams (PR: observability) ------
#
# The tracing instrumentation points were placed so the generator
# wrapper and the state-machine eval brackets describe the same
# abstract pull/yield protocol; that makes the trace stream a
# correctness oracle for the state machine — any divergence in
# evaluation order shows up as an event-sequence mismatch long before
# it corrupts a value.

def traced(rig_pair, node, text, drive):
    session, sm = rig_pair
    from repro.obs.trace import QueryTracer, RingBufferSink
    session.evaluator.reset()
    tracer = QueryTracer(RingBufferSink(), access=True)
    tracer.begin(node, text)
    session.evaluator.set_tracer(tracer)
    try:
        drive(session, sm, node)
    finally:
        tracer.finish()
        session.evaluator.set_tracer(None)
    return tracer


def trace_both(rig_pair, text):
    session, sm = rig_pair
    node = session.compile(text)
    generator = traced(rig_pair, node, text,
                       lambda s, m, n: produced(s.evaluator.eval(n)))
    machine = traced(rig_pair, node, text,
                     lambda s, m, n: produced(m.iter_drive(n)))
    return generator, machine


@given(text=expressions)
def test_engines_emit_identical_trace_events(rig, text):
    """The full ordered pull/yield event stream matches, node by node."""
    generator, machine = trace_both(rig, text)
    assert generator.events() == machine.events()


@given(text=expressions)
def test_engines_record_identical_span_profiles(rig, text):
    """Per-node aggregates (pulls, yields, attributed reads) match."""
    generator, machine = trace_both(rig, text)
    assert [(s.index, s.op, s.pulls, s.yields, s.reads, s.writes)
            for s in generator.spans] == \
        [(s.index, s.op, s.pulls, s.yields, s.reads, s.writes)
         for s in machine.spans]


@pytest.fixture(scope="module")
def list_rig():
    program = TargetProgram()
    builder.linked_list(program, "head", [11, 42, 5, 33, 19, 29, 8, 77])
    session = DuelSession(SimulatorBackend(program))
    return session, StateMachineEvaluator(session.evaluator)


@pytest.mark.parametrize("text", [
    "head-->next->value",
    "head-->next->value >? 20",
    "head-->next->value == 33 ? 1 : 0",
])
def test_engines_trace_list_walks_identically(list_rig, text):
    generator, machine = trace_both(list_rig, text)
    assert generator.events() == machine.events()
    assert generator.events()  # non-trivial stream


# -- both engines leave identical query-log records (PR: flight
# recorder / query log) -------------------------------------------------
#
# The structured query log is the third observational surface (after
# values and trace events) that must not distinguish the engines: for
# the same query, both must produce the same lifecycle sequence with
# the same terminal outcome, value count, governor verdict and target
# traffic — only timings (and the engine tag itself) may differ.

_TIMING_FIELDS = ("ts", "parse_ms", "wall_ms")


def logged_records(rig_pair, text, engine, drive):
    import io
    import json

    from repro.obs.qlog import QueryLog, drive_logged

    buffer = io.StringIO()
    qlog = QueryLog(buffer, clock=lambda: 0.0)
    drive_logged(qlog, rig_pair[0], text, drive, engine=engine)
    records = [json.loads(line)
               for line in buffer.getvalue().splitlines()]
    for record in records:
        record.pop("engine", None)
        for field in _TIMING_FIELDS:
            record.pop(field, None)
    return records


def qlog_both(rig_pair, text):
    session, sm = rig_pair
    generator = logged_records(
        rig_pair, text, "generator",
        lambda node: session.evaluator.eval(node))
    machine = logged_records(
        rig_pair, text, "statemachine",
        lambda node: sm.iter_drive(node))
    return generator, machine


@given(text=expressions)
# Non-integer bounds of to and [[ ]] fault on both engines.
@example(text="1.5..3")
@example(text="..2.5")
@example(text="(5,6,7)[[1.5]]")
# A source abandoned mid-stream leaves no with-scope entry behind.
@example(text="(x[..3].(_))[[0]], _")
@example(text="(while (x[2..4].(_)) 1), _")
def test_engines_leave_identical_qlog_records(rig, text):
    generator, machine = qlog_both(rig, text)
    assert generator == machine
    assert generator[-1]["ev"] in ("drained", "faulted", "truncated")


def test_engines_log_identical_truncation_records(rig):
    session, sm = rig
    saved = session.options.max_steps
    session.options.max_steps = 40
    try:
        generator, machine = qlog_both(rig, "(1..) + x[0]")
    finally:
        session.options.max_steps = saved
    assert generator == machine
    terminal = generator[-1]
    assert terminal["ev"] == "truncated"
    assert terminal["kind"] == "steps"
    assert terminal["values"] > 0


def test_engines_log_identical_fault_records(rig):
    generator, machine = qlog_both(rig, "x[2000000]")
    assert generator == machine
    assert generator[-1]["ev"] == "faulted"
    assert generator[-1]["error_type"] == "DuelMemoryError"


def test_engines_log_identical_rejection_records(rig):
    generator, machine = qlog_both(rig, "x[")
    assert generator == machine
    assert [r["ev"] for r in generator] == ["received", "rejected"]


# -- both engines issue identical target accesses (PR: access
# observatory) ----------------------------------------------------------
#
# The fourth observational surface: the ordered (op, address, size)
# stream the evaluator sends at the target.  The access-traced engine
# tracer records it at the DebuggerInterface itself (the tracing hop),
# below both engines, so any divergence in *which* memory a query
# touches — not just which values it yields — shows up as a sequence
# mismatch.  This is also the surface the scan-pattern classifier and
# prefetch advisor consume, so parity here means profiles and advice
# are engine-independent too.

def accesses_both(rig_pair, text):
    """Each engine's access stream and profile, from its traced drive."""
    return tuple(SimpleNamespace(accesses=tracer.accesses,
                                 profile=tracer.access_profile)
                 for tracer in trace_both(rig_pair, text))


@given(text=expressions)
@example(text=LONG_DRAW)
def test_engines_issue_identical_access_streams(rig, text):
    generator, machine = accesses_both(rig, text)
    assert generator.accesses() == machine.accesses()


@pytest.mark.parametrize("text", [
    "head-->next->value",
    "head-->next->value >? 20",
])
def test_engines_walk_lists_with_identical_accesses(list_rig, text):
    generator, machine = accesses_both(list_rig, text)
    assert generator.accesses() == machine.accesses()
    assert generator.accesses()   # the walk really touched memory


@given(text=expressions)
def test_engines_profile_identically(rig, text):
    """Same access stream ⇒ same classified profile: the locality
    numbers an operator sees cannot depend on the engine."""
    generator, machine = accesses_both(rig, text)
    assert generator.profile() == machine.profile()


@given(text=expressions)
def test_engines_trip_step_budget_at_same_count(rig, text):
    from hypothesis import assume

    from repro.core.errors import DuelEvalLimit

    session, sm = rig
    node = session.compile(text)
    evaluator = session.evaluator
    evaluator.reset()
    produced(evaluator.eval(node))
    total = session.governor.steps
    assume(total >= 2)
    budget = total // 2
    saved = session.options.max_steps
    session.options.max_steps = budget
    try:
        evaluator.reset()
        with pytest.raises(DuelEvalLimit):
            for _ in evaluator.eval(node):
                pass
        generator_trip = session.governor.steps
        evaluator.reset()
        with pytest.raises(DuelEvalLimit):
            sm.drive(node)
        assert session.governor.steps == generator_trip == budget + 1
    finally:
        session.options.max_steps = saved
