"""Constant right operands are driven once per query.

``x[..N] >? -40`` re-evaluates ``-40`` for every element in the
paper's semantics, and ``x[..N]#i => x[i] >? -40`` activates the
comparison (and so its operand) once per element.  The generator
engine drives such an operand (only constants and C operators over
them) once per query and charges each later use, in any activation,
what that drive charged the governor.  A traced drive (``explain``)
still re-drives, so comparing the two pins the reuse: the same
lines, the same counts, and every limit, truncation point and
cancellation checkpoint at the same place.  A reuse that skips or
double-charges the governor fails here.
"""

import io

import pytest

from repro import DuelSession, SimulatorBackend, TargetProgram
from repro.core import nodes as N_
from repro.target import builder

N = 40
X = [(-1) ** i * (i * 37 % 101) for i in range(N)]
QUERIES = (f"x[..{N}] >? -40", f"x[..{N}] !=? 1+2", f"x[..{N}] + -1",
           # One activation of the operand's parent per element.
           f"x[..{N}]#i => x[i] >? -40", f"x[..{N}]#i => x[i] + 2*50",
           f"x[..{N}]#i => x[i] !=? 1+2", f"x[..{N}]#i => x[i] >? 2*50-60")
COUNTS = ("steps", "symnodes", "reads", "lookups", "lines")


@pytest.fixture
def session():
    program = TargetProgram()
    builder.int_array(program, "x", X)
    return DuelSession(SimulatorBackend(program))


def drive(session, text, trace):
    """(lines, terminal kind, counts, diagnostic or error) of one query,
    untraced (constant operand driven once) or traced (re-driven)."""
    lines = []
    for kind, info in session.ievents(text, trace=trace):
        if kind == "value":
            lines.append(info)
    stats = info.get("stats", {})
    return (lines, kind, {k: stats.get(k) for k in COUNTS},
            info.get("diagnostic", info.get("error")))


def both(session, text):
    untraced = drive(session, text, trace=False)
    traced = drive(session, text, trace=True)
    return untraced, traced


@pytest.mark.parametrize("text", QUERIES)
def test_untraced_and_traced_drives_agree(session, text):
    untraced, traced = both(session, text)
    assert untraced == traced
    assert untraced[1] == "done"
    assert untraced[2]["steps"] > 3 * N


@pytest.mark.parametrize("text", QUERIES)
def test_explain_reports_the_same_work(session, text):
    _lines, _kind, counts, _note = drive(session, text, trace=False)
    session.explain(text, out=io.StringIO())
    explained = session.last_query.stats
    assert {k: explained.get(k) for k in COUNTS} == counts


def test_reference_output(session):
    assert session.eval_values(QUERIES[0]) == [v for v in X if v > -40]
    assert session.eval_values(QUERIES[1]) == [v for v in X if v != 3]
    assert session.eval_values(QUERIES[2]) == [v - 1 for v in X]
    assert session.eval_values(QUERIES[3]) == [v for v in X if v > -40]
    assert session.eval_values(QUERIES[4]) == [v + 100 for v in X]
    assert session.eval_values(QUERIES[5]) == [v for v in X if v != 3]
    assert session.eval_values(QUERIES[6]) == [v for v in X if v > 40]
    assert session.eval_lines(QUERIES[4])[1] == "x[i]+2*50 = 63"


def test_operand_is_driven_once_per_query_not_per_activation(session):
    """``2*50+400`` sits under ``=>``: N activations of ``>?``, one
    drive of the operand, and one again for the next query."""
    evaluator = session.evaluator
    plain = evaluator._dispatch[N_.Constant]
    drives = []

    def counting(node):
        drives.append(node.value)
        return plain(node)
    evaluator._dispatch[N_.Constant] = counting
    text = f"x[..{N}]#i => x[i] >? 2*50+400"
    assert session.eval_values(text) == []
    assert drives.count(400) == 1
    session.eval_values(text)
    assert drives.count(400) == 2


def test_nothing_carries_over_a_symbolic_switch(session):
    text = QUERIES[4]
    symbolic = drive(session, text, trace=False)
    session.options.symbolic = False
    plain = drive(session, text, trace=False)
    program = TargetProgram()
    builder.int_array(program, "x", X)
    fresh = DuelSession(SimulatorBackend(program), symbolic=False)
    assert plain == drive(fresh, text, trace=False)
    assert plain[2]["symnodes"] == 0 < symbolic[2]["symnodes"]
    assert plain[0] == [str(v + 100) for v in X]


@pytest.mark.parametrize("limit", ("steps", "symnodes"))
@pytest.mark.parametrize("text", QUERIES)
def test_truncation_points_match_across_the_limit(session, text, limit):
    """Every limit from 1 past the query's total: the same partial
    output and diagnostic both ways."""
    total = drive(session, text, trace=False)[2][limit]
    for k in range(1, total + 2):
        session.governor.set_limit(limit, k)
        try:
            untraced, traced = both(session, text)
        finally:
            session.governor.set_limit(limit, None)
        assert untraced == traced, k
        assert untraced[1] == ("done" if k >= total else "truncated"), k


def test_cancellation_checkpoint_matches():
    """A cancel requested mid-scan lands on the same checkpoint: the
    next 256-step boundary, since the filter prints nothing."""
    program = TargetProgram()
    builder.int_array(program, "x", list(range(300)))

    class CancellingBackend(SimulatorBackend):
        reads = 0

        def get_target_bytes(self, address, size):
            self.reads += 1
            if self.reads == 70:
                cancelling.governor.token.trip()
            return super().get_target_bytes(address, size)

    backend = CancellingBackend(program)
    cancelling = DuelSession(backend)
    outcomes = []
    for trace in (False, True):
        backend.reads = 0
        outcomes.append(drive(cancelling, "x[..300] <? -40", trace))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] == "cancelled"
    steps = outcomes[0][2]["steps"]
    assert steps % 256 == 0 and steps < 4 * 300


def test_faulting_operand_faults_at_first_left_value(session):
    for text in ("x[..3] >? 1/0", "x[..3]#i => x[i] >? 1/0"):
        untraced, traced = both(session, text)
        assert untraced == traced
        assert untraced[1] == "faulted"
        assert "division by zero" in untraced[3]


def test_faulting_operand_never_driven_without_left_values(session):
    untraced, traced = both(session, "x[..0] >? 1/0")
    assert untraced == traced
    assert untraced[:2] == ([], "done")


def test_non_constant_operand_is_re_driven(session):
    """``x[0]`` reads the target, so it is driven for every left value:
    one read per element on each side of the comparison."""
    untraced, traced = both(session, f"x[..{N}] >=? x[0]")
    assert untraced == traced
    assert untraced[2]["reads"] >= 2 * N
