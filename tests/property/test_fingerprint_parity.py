"""Fingerprint parity: both engines key statements identically.

The statement-statistics table is only trustworthy as a fleet-wide
aggregate if the fingerprint never depends on *which* engine runs the
query.  Parity is structural — both engines evaluate the same AST
from the shared parser, and the fingerprint is a pure function of
that AST — but the property is worth pinning: a future engine-specific
parse tweak or normalization bug would silently split one query shape
into two table entries.
"""

import io

import pytest
from hypothesis import given, strategies as st

from repro import DuelSession, SimulatorBackend, TargetProgram
from repro.core.statemachine import StateMachineEvaluator
from repro.obs.fingerprint import fingerprint
from repro.obs.statements import StatementStats
from repro.target import builder

DATA = [3, -1, 7, 0, 12, -9, 2, 120, 5, -4]


def make_session():
    program = TargetProgram()
    builder.int_array(program, "x", DATA)
    return DuelSession(SimulatorBackend(program))


@pytest.fixture(scope="module")
def rig():
    return make_session(), make_session()


# The same SM-supported expression grammar test_engines.py drives.
ints = st.integers(-9, 9)


def leaf():
    return st.one_of(
        ints.map(str),
        st.just("x[0]"),
        st.builds(lambda a: f"x[{abs(a) % 10}]", ints),
    )


def combine(children):
    binop = st.sampled_from(["+", "-", "*", ",", ">?", "<?", "==?"])
    return st.one_of(
        st.tuples(binop, children, children).map(
            lambda t: f"({t[1]} {t[0]} {t[2]})"),
        st.tuples(children, children).map(
            lambda t: f"({t[0]} .. {t[1]})"),
        children.map(lambda c: f"(- {c})"),
    )


expressions = st.recursive(leaf(), combine, max_leaves=8)


@given(text=expressions)
def test_independent_parses_fingerprint_identically(rig, text):
    """Each engine parses in its own session; the keys must agree."""
    gen_session, sm_session = rig
    gen_fp = fingerprint(gen_session.compile(text))
    sm_fp = fingerprint(sm_session.compile(text))
    assert gen_fp == sm_fp


@given(text=expressions)
def test_engines_record_the_same_statements_key(rig, text):
    """Driving through either engine lands on one table entry."""
    gen_session, sm_session = rig
    table = StatementStats()
    # Each drive is a query of its own: without a reset, one step
    # budget would be shared by every example the run generates.
    gen_session.evaluator.reset()
    sm_session.evaluator.reset()

    node = gen_session.compile(text)
    list(gen_session.evaluator.eval(node))
    gen_fp = fingerprint(node)
    table.record(gen_fp.hash, gen_fp.text, outcome="done")

    sm_node = sm_session.compile(text)
    machine = StateMachineEvaluator(sm_session.evaluator)
    list(machine.drive(sm_node))
    sm_fp = fingerprint(sm_node)
    table.record(sm_fp.hash, sm_fp.text, outcome="done")

    assert len(table) == 1
    (row,) = table.snapshot()
    assert row["calls"] == 2


@given(a=st.integers(0, 9), b=st.integers(0, 9))
def test_literal_bucketing_is_engine_independent(rig, a, b):
    """Two literal variants fold to one shape in both sessions.

    Non-negative literals only: ``-1`` parses as unary minus over a
    constant — a different AST shape from a bare constant, and the
    fingerprint is honest about that.
    """
    gen_session, sm_session = rig
    fp_a = fingerprint(gen_session.compile(f"x[..5] >? {a}"))
    fp_b = fingerprint(sm_session.compile(f"x[..5] >? {b}"))
    assert fp_a == fp_b


def test_recording_session_keys_match_raw_fingerprints():
    """The fingerprint a *recording session* files under equals the
    pure-function fingerprint of the parsed query."""
    session = make_session()
    session.statements = StatementStats()
    session.duel("x[..5] >? 2", out=io.StringIO())
    assert session.last_fingerprint is not None
    raw = fingerprint(session.compile("x[..5] >? 9"))
    assert session.last_fingerprint.hash == raw.hash
    (row,) = session.statements.snapshot()
    assert row["fingerprint"] == raw.hash
