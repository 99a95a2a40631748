"""Fault injection at the debugger interface boundary.

The robustness contract: any fault the target can produce —
unreadable memory, structures unmapped mid-walk, failed calls —
surfaces as the paper's error report, never a Python traceback, and a
recovering session rolls side-effecting queries back and stays usable.
"""

import io

import pytest

from repro.core.errors import (
    DuelError,
    DuelMemoryError,
    DuelTargetError,
)
from repro.core.session import DuelSession
from repro.target import builder, snapshot
from repro.target.interface import FaultInjectingBackend, SimulatorBackend
from repro.target.memory import TargetMemoryFault
from repro.target.program import TargetProgram
from repro.target.stdlib import install_stdlib

X = [3, -1, 7, 0, 12, -9, 2, 120, 5, -4]


def faulty_array_session(**faults):
    """A session over int x[10], with injection configured."""
    program = TargetProgram()
    builder.int_array(program, "x", X)
    backend = FaultInjectingBackend(SimulatorBackend(program), **faults)
    return program, backend, DuelSession(backend)


# -- the scheduled-read fault points ------------------------------------

def test_backend_level_read_schedule(program):
    builder.int_array(program, "x", [1, 2, 3])
    address = program.lookup("x").address
    backend = FaultInjectingBackend(SimulatorBackend(program),
                                    fail_read_at=(1, 3))
    with pytest.raises(TargetMemoryFault):
        backend.get_target_bytes(address, 4)
    assert backend.get_target_bytes(address, 4) == (1).to_bytes(4, "little")
    with pytest.raises(TargetMemoryFault):
        backend.get_target_bytes(address, 4)
    assert backend.reads == 3
    assert [kind for kind, _ in backend.injected] == ["read", "read"]
    # The schedule is spent: read #4 onward succeeds.
    assert backend.get_target_bytes(address + 4, 4) == \
        (2).to_bytes(4, "little")


def test_fail_read_at_accepts_bare_int(program):
    builder.int_array(program, "x", [9])
    address = program.lookup("x").address
    backend = FaultInjectingBackend(SimulatorBackend(program),
                                    fail_read_at=2)
    assert backend.get_target_bytes(address, 4) == (9).to_bytes(4, "little")
    with pytest.raises(TargetMemoryFault) as info:
        backend.get_target_bytes(address, 4)
    assert "injected fault on read #2" in str(info.value)


def test_injected_read_fault_reports_paper_format():
    """An injected fault produces the paper's exact two-line error."""
    program, _, session = faulty_array_session(fail_read_at=3)
    address = program.lookup("x").address + 2 * 4
    with pytest.raises(DuelMemoryError) as info:
        session.eval_values("x[..10]")
    assert str(info.value) == (
        f"Illegal memory reference in x of x:\n"
        f"x[2] = lvalue {address:#x}.")


def test_duel_reports_partial_results_then_error():
    """Values produced before the fault are printed, then the report."""
    _, backend, session = faulty_array_session(fail_read_at=3)
    out = io.StringIO()
    session.duel("x[..10]", out=out)
    lines = out.getvalue().splitlines()
    assert lines[0] == "x[0] = 3"
    assert lines[1] == "x[1] = -1"
    assert lines[2] == "Illegal memory reference in x of x:"
    assert lines[3].startswith("x[2] = lvalue 0x")
    # The schedule is one-shot; the same session works again.
    assert session.eval_values("x[..10]") == X
    assert backend.injected == [("read", 3)]


def test_fault_rollback_recovery_acceptance():
    """The acceptance flow: a side-effecting query faults mid-drive,
    the paper-format error is reported, the pre-query snapshot is
    restored, and the *same* session evaluates the next query
    correctly."""
    program, backend, session = faulty_array_session(fail_read_at=3)
    out = io.StringIO()
    session.duel("x[..10]++", out=out)               # 1. fault mid-query
    text = out.getvalue()
    assert "Illegal memory reference in x of x[i]++" in text \
        or "Illegal memory reference in x of x" in text  # 2. paper error
    assert ("read", 3) in backend.injected
    # 3. the rollback: the increments applied before the fault are gone.
    assert [program.read_value(program.lookup("x").address + i * 4,
                               program.parse_type("int"))
            for i in range(10)] == X
    # 4. the same session answers the next query correctly.
    assert session.eval_values("x[..10]") == X
    assert session.eval_values("#/(x[..10] >? 0)") == [6]


def test_without_rollback_partial_mutation_persists():
    """Contrast: the raw eval path does not roll back — duel() does."""
    program, _, session = faulty_array_session(fail_read_at=3)
    with pytest.raises(DuelMemoryError):
        session.eval_values("x[..10]++")
    mutated = [program.read_value(program.lookup("x").address + i * 4,
                                  program.parse_type("int"))
               for i in range(10)]
    assert mutated[:2] == [X[0] + 1, X[1] + 1]
    assert mutated[2:] == X[2:]


# -- structures vanishing mid-generator ---------------------------------

def test_unmap_mid_generator_then_restore():
    program = TargetProgram()
    builder.linked_list(program, "L", [1, 2, 3, 4, 5])
    snap = snapshot.take(program)
    backend = FaultInjectingBackend(SimulatorBackend(program),
                                    unmap_after_reads=3,
                                    unmap_region="heap")
    session = DuelSession(backend)
    out = io.StringIO()
    session.duel("L-->next->value", out=out)     # must not blow up
    lines = out.getvalue().splitlines()
    values = [line for line in lines if "lvalue" not in line
              and "Illegal" not in line]
    assert len(values) < 5                       # the walk was cut short
    assert ("unmap", "heap") in backend.injected
    assert program.memory.region("heap") is None
    # A snapshot restore brings the region map itself back.
    snapshot.restore(program, snap)
    assert session.eval_values("L-->next->value") == [1, 2, 3, 4, 5]


# -- failed target calls -------------------------------------------------

def test_injected_call_fault_is_target_error(program):
    backend = FaultInjectingBackend(SimulatorBackend(program),
                                    fail_calls=True)
    session = DuelSession(backend)
    with pytest.raises(DuelTargetError) as info:
        session.eval_values('strlen("abc")')
    assert str(info.value).startswith("target call failed")
    assert isinstance(info.value.fault, TargetMemoryFault)
    assert backend.injected[-1][0] == "call"


def test_call_fault_recovery_via_duel(program):
    backend = FaultInjectingBackend(SimulatorBackend(program),
                                    fail_calls=True)
    session = DuelSession(backend)
    out = io.StringIO()
    session.duel('strlen("abc") + 1', out=out)
    assert out.getvalue().startswith("target call failed")
    # Calls keep failing, but the session itself is fine.
    assert session.eval_values("10 + 20") == [30]
    out = io.StringIO()
    session.duel("(1..3)+(5,9)", out=out)
    assert out.getvalue() == "6 10 7 11 8 12\n"


# -- pseudo-random chaos is reproducible --------------------------------

def _chaos_run(seed):
    program = TargetProgram()
    builder.int_array(program, "x", list(range(40)))
    backend = FaultInjectingBackend(SimulatorBackend(program),
                                    read_fault_rate=0.2, seed=seed)
    session = DuelSession(backend)
    trace = []
    for _ in range(4):
        try:
            trace.append(tuple(session.eval_values("x[..40]")))
        except DuelError as error:
            trace.append(str(error))
    return trace, tuple(backend.injected)


def test_read_fault_rate_is_seed_deterministic():
    assert _chaos_run(7) == _chaos_run(7)
    assert _chaos_run(7) != _chaos_run(8)


# -- stdlib interplay ----------------------------------------------------

def test_session_survives_fault_storm():
    """Many consecutive injected faults never wedge the session."""
    program = TargetProgram()
    install_stdlib(program)
    builder.int_array(program, "x", X)
    backend = FaultInjectingBackend(SimulatorBackend(program),
                                    fail_read_at=range(1, 8))
    session = DuelSession(backend)
    for _ in range(7):
        out = io.StringIO()
        session.duel("x[..10]", out=out)
        assert "Illegal memory reference" in out.getvalue()
    # Schedule exhausted; full fidelity returns.
    assert session.eval_values("x[..10]") == X


# -- is_mapped is bound past the evaluator's backend hops -----------------

def test_bounds_checks_skip_the_hops_delegation(monkeypatch, program):
    """Index bounds checks and ``-->`` steps ask ``is_mapped`` of the
    target directly: no hop of the chain resolves it per call."""
    from repro.target.interface import (AccessTracingBackend,
                                        GovernedBackend, TracingBackend)

    builder.int_array(program, "x", X)
    builder.linked_list(program, "head", [11, 42, 5])
    session = DuelSession(SimulatorBackend(program))
    looked_up = []
    for hop in (TracingBackend, AccessTracingBackend, GovernedBackend):
        def spy(self, name, _original=hop.__getattr__):
            looked_up.append(name)
            return _original(self, name)
        monkeypatch.setattr(hop, "__getattr__", spy)

    assert session.eval_values("x[..10] !=? 0") == [v for v in X if v]
    assert session.eval_values("head-->next->value") == [11, 42, 5]
    assert "is_mapped" not in looked_up


def test_bounds_check_sees_an_unmap_mid_scan():
    """The bound ``is_mapped`` is the live target's: after an injected
    unmap the next index is refused with the paper's error."""
    program, backend, session = faulty_array_session(
        unmap_after_reads=2, unmap_region="data")   # x[0]: test, print
    out = io.StringIO()
    session.duel("x[..10] !=? 0", out=out)
    assert out.getvalue().splitlines()[:2] == [
        "x[0] = 3", "Illegal memory reference in x of x[y]:"]
    assert backend.injected == [("unmap", "data")]
