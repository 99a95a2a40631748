"""Session robustness: step budgets and the recovering duel command."""

import io
import json

import pytest

from repro.core.errors import DuelEvalLimit, DuelMemoryError
from repro.core.session import DuelSession
from repro.minic import run_program
from repro.obs.qlog import TERMINAL_EVENTS, QueryLog
from repro.target import builder
from repro.target.interface import SimulatorBackend
from repro.target.program import TargetProgram


# -- the step budget stops runaway generators ---------------------------

def test_unbounded_range_hits_step_budget():
    session = DuelSession(SimulatorBackend(TargetProgram()),
                          max_steps=10_000)
    with pytest.raises(DuelEvalLimit) as info:
        session.eval("1..")
    assert info.value.limit == 10_000
    assert info.value.kind == "steps"
    assert "exceeded 10000 generator steps" in str(info.value)


def test_step_budget_resets_between_queries():
    """The budget is per-query: a long query doesn't starve the next."""
    session = DuelSession(SimulatorBackend(TargetProgram()),
                          max_steps=10_000)
    assert len(session.eval_values("0..2999")) == 3000
    assert len(session.eval_values("0..2999")) == 3000


def test_duel_command_truncates_at_step_budget_and_recovers():
    session = DuelSession(SimulatorBackend(TargetProgram()),
                          max_steps=1_000)
    out = io.StringIO()
    session.duel("1..", out=out)                 # must terminate
    text = out.getvalue()
    # Partial values survive, the diagnostic names the limit and the
    # remedy, and the session stays usable.
    assert text.startswith("1 2 3 ")
    assert "step budget exhausted" in text
    assert "raise with 'limits steps 2000'" in text
    assert session.eval_values("#/(1..10)") == [10]


def test_nested_runaway_generator_is_bounded(array_session):
    array_session.options.max_steps = 5_000
    with pytest.raises(DuelEvalLimit):
        array_session.eval("x[..10] + (0..)")


# -- lazy drive: partial results before mid-query errors ----------------

def test_ieval_lines_is_lazy(array_session):
    lines = array_session.ieval_lines("x[..10]")
    assert next(lines) == "x[0] = 3"
    assert next(lines) == "x[1] = -1"


def test_duel_prints_partials_before_memory_error():
    program = TargetProgram()
    builder.linked_list(program, "L", [10, 20, 30])
    # Break the last node's next pointer to an unmapped address.
    session = DuelSession(SimulatorBackend(program))
    node_p = session.evaluator.parse_type("struct node *")
    third = session.eval_values("L->next->next")[0]
    next_off = program.types.structs["node"].field("next").offset
    program.write_value(third + next_off, node_p, 0x16820)
    out = io.StringIO()
    session.duel("L->next->next->next->value", out=out)
    assert out.getvalue() == (
        "Illegal memory reference in x of x->y:\n"
        "L->next->next->next = lvalue 0x16820.\n")
    # Partial results stream for generator walks over the same break.
    out = io.StringIO()
    session.duel("L-->next->value", out=out)
    lines = out.getvalue().splitlines()
    assert lines[:3] == ["L->value = 10",
                         "L->next->value = 20",
                         "L->next->next->value = 30"]


def test_syntax_errors_are_printed_not_raised(empty_session):
    out = io.StringIO()
    empty_session.duel("x +* 3", out=out)
    assert out.getvalue()                        # some report came out
    assert empty_session.eval_values("1+2") == [3]


def test_failed_declaration_rolls_back_alias(array_session):
    """A query mixing a declaration with a faulting read leaves no
    half-made target allocation behind."""
    program = array_session.backend.program
    before = program.heap.bytes_allocated
    out = io.StringIO()
    array_session.duel("int i; i = x[2000000]", out=out)
    assert "Illegal memory reference" in out.getvalue()
    assert program.heap.bytes_allocated == before


def test_string_cache_invalidated_on_rollback(program):
    """Rolled-back string literals are re-placed, not dangled."""
    from repro.target.interface import FaultInjectingBackend
    backend = FaultInjectingBackend(SimulatorBackend(program),
                                    fail_calls=True)
    session = DuelSession(backend)
    out = io.StringIO()
    session.duel('strcmp("duel", "duel")', out=out)   # faults, rolls back
    assert "target call failed" in out.getvalue()
    assert session.evaluator._string_cache == {}
    # The literal works again once calls stop failing.
    backend._fail_calls = False
    assert session.eval_values('strcmp("duel", "duel")') == [0]


# -- target code that runs away or fails below the evaluator -------------

SPIN = ("int g; int spin(int v) { g = 99; while (v) v = v; return 0; } "
        "int main() { g = 1; return 0; }")


def logged_session(program):
    session = DuelSession(SimulatorBackend(program))
    buffer = io.StringIO()
    session.qlog = QueryLog(buffer)
    return session, buffer


def terminal_records(buffer):
    return [record for record in map(json.loads,
                                     buffer.getvalue().splitlines())
            if record["ev"] in TERMINAL_EVENTS]


def test_runaway_target_call_faults_and_rolls_back():
    """A target call past the interpreter's step cap is a target
    fault: the query ends faulted, its writes roll back, and the
    record and qlog name the fault."""
    interp = run_program(SPIN)
    interp.max_steps = interp._steps + 5000
    session, buffer = logged_session(interp.program)
    kind, info = list(session.ievents("spin(1)"))[-1]
    assert kind == "faulted"
    assert info["error_type"] == "DuelTargetError"
    assert "exceeded" in info["error"]
    record = info["record"]
    assert record.outcome == "faulted"
    assert type(record.error).__name__ == "DuelTargetError"
    assert terminal_records(buffer)[-1]["error_type"] == "DuelTargetError"
    assert session.eval_values("g") == [1]


def test_non_duel_exception_is_recorded_rolled_back_and_reraised(
        array_session):
    """An exception that is not a query error still ends the query as
    a recorded, rolled-back fault before it propagates."""
    program = array_session.backend.program

    def broken(prog):
        raise RuntimeError("defect below the evaluator")

    program.define_function("broken", "int broken(void);", broken)
    session, buffer = logged_session(program)
    before = session.eval_values("x[0]")
    with pytest.raises(RuntimeError, match="defect") as raised:
        list(session.ievents("x[0] = 77, broken()"))
    assert raised.traceback[-1].name == "broken"
    record = session.last_query
    assert record.outcome == "faulted"
    assert type(record.error) is RuntimeError
    assert terminal_records(buffer)[-1]["error_type"] == "RuntimeError"
    assert session.eval_values("x[0]") == before
