"""Unit tests for the paper's explicit state-machine engine."""

import pytest

from repro.core.errors import DuelError
from repro.core.statemachine import NOVALUE, StateMachineEvaluator


@pytest.fixture
def engines(array_session):
    sm = StateMachineEvaluator(array_session.evaluator)
    return array_session, sm


def drive(engines, text):
    session, sm = engines
    node = session.compile(text)
    return [session.evaluator.ops.load(v) for v in sm.drive(node)]


class TestPaperListings:
    def test_constant(self, engines):
        assert drive(engines, "5") == [5]

    def test_plus_with_generators(self, engines):
        # The paper's worked example of the numbered PLUS listing.
        assert drive(engines, "(1..3)+(5,9)") == [6, 10, 7, 11, 8, 12]

    def test_alternate(self, engines):
        assert drive(engines, "1,2,5") == [1, 2, 5]

    def test_to_with_generator_bounds(self, engines):
        got = drive(engines, "(1,5)..(5,10)")
        assert got == (list(range(1, 6)) + list(range(1, 11))
                       + [5] + list(range(5, 11)))

    def test_ifgt(self, engines):
        assert drive(engines, "x[..10] >? 0") == [3, 7, 12, 2, 120, 5]

    def test_andand(self, engines):
        assert drive(engines, "(1,0,2) && (7,8)") == [7, 8, 7, 8]

    def test_if(self, engines):
        assert drive(engines, "if ((1,0,1)) 5 else 6") == [5, 6, 5]

    def test_imply(self, engines):
        assert drive(engines, "(1..3) => 9") == [9, 9, 9]

    def test_sequence(self, engines):
        assert drive(engines, "(1,2); 7") == [7]

    def test_unary(self, engines):
        assert drive(engines, "-(1..3)") == [-1, -2, -3]

    def test_prefix_to(self, engines):
        assert drive(engines, "..4") == [0, 1, 2, 3]


class TestProtocol:
    def test_restart_after_novalue(self, engines):
        # "If eval is called again ... the entire evaluation process
        # starts over because state has been reset to 0."
        session, sm = engines
        node = session.compile("(1..2)+(10,20)")
        first = [session.evaluator.ops.load(v) for v in sm.drive(node)]
        second = [session.evaluator.ops.load(v) for v in sm.drive(node)]
        assert first == second == [11, 21, 12, 22]

    def test_eval_returns_novalue_at_end(self, engines):
        session, sm = engines
        node = session.compile("7")
        assert session.evaluator.ops.load(sm.eval(node)) == 7
        assert sm.eval(node) is NOVALUE
        # And starts over:
        assert session.evaluator.ops.load(sm.eval(node)) == 7

    def test_unsupported_operator_rejected(self, engines):
        session, sm = engines
        node = session.compile("#/(1..3)")  # reductions are generator-only
        assert not sm.supports(node)
        with pytest.raises(DuelError):
            sm.drive(node)

    def test_supports_reports_subset(self, engines):
        session, sm = engines
        assert sm.supports(session.compile("(1..3)+x[0]"))
        assert sm.supports(session.compile("L-->next->value"))
        assert not sm.supports(session.compile("f(1)"))


class TestStructuralOperators:
    """The WITH/DFS/SELECT/DEFINE machines (paper listings) against the
    generator engine on the paper's own queries."""

    @pytest.fixture
    def rig(self, session):
        return session, StateMachineEvaluator(session.evaluator)

    @pytest.mark.parametrize("expr", [
        "hash[42]->scope",
        "hash[1,9]->(scope,name)",
        "(hash[..1024] !=? 0)->scope >? 5",
        "hash[0]-->next->scope",
        "root-->(left,right)->key",
        "root-->>(left,right)->key",
        "L-->next->value[[3,5]]",
        "L-->next->(value ==? next-->next->value)",
        "hash[..1024]-->next-> if (next) scope <? next->scope",
        "x[..10].if (_ < 0 || _ > 100) _",
        "y := x[..10] => if (y < 0 || y > 100) y",
        "(10..30)[[3..5]]",
        "root-->(if (key > 5) left else if (key < 5) right)->key",
        # Assignments and defines that leave the target as it was.
        "x[0] = x[0]",
        "x[x[3]] = x[0]",
        "x[1,2] += 0",
        "y := x[..3]",
        "y := x[..3] => y = y",
    ])
    def test_agrees_with_generator_engine(self, rig, expr):
        session, sm = rig
        node = session.compile(expr)
        ops = session.evaluator.ops
        for symbolic in (True, False):
            session.options.symbolic = symbolic
            session.evaluator.reset()
            generator = [(ops.load(v), v.sym.render())
                         for v in session.evaluator.eval(node)]
            symnodes = session.governor.symnodes
            session.evaluator.reset()
            machine = [(ops.load(v), v.sym.render())
                       for v in sm.drive(node)]
            assert generator == machine
            assert session.governor.symnodes == symnodes

    def test_assignment_through_generators(self, rig):
        session, sm = rig
        sm.drive(session.compile("x[1..3] = 0"))
        assert session.eval_values("x[1..3]") == [0, 0, 0]

    def test_scope_balanced_after_drive(self, rig):
        session, sm = rig
        before = session.evaluator.scope.with_depth
        sm.drive(session.compile("hash[1,9]->(scope,name)"))
        assert session.evaluator.scope.with_depth == before

    def test_while_machine(self, rig):
        session, sm = rig
        session.eval("x[0] = 3 ;")
        out = sm.drive(session.compile("while (x[0]) x[0] = x[0] - 1"))
        # Three iterations ran; assignment results are lvalues, so
        # loading after the run reads the final store (same as the
        # generator engine when values are collected before loading).
        assert len(out) == 3
        assert session.eval_values("x[0]") == [0]
