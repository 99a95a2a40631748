"""Unit tests for value formatting and the session display rules."""

import io

import pytest

from repro import DuelSession, SimulatorBackend
from repro.core.format import ValueFormatter, escape_char
from repro.core.symbolic import SymText
from repro.core.values import ValueOps, lvalue, rvalue
from repro.ctype.types import CHAR, DOUBLE, INT, PointerType


@pytest.fixture
def formatter(program):
    return ValueFormatter(ValueOps(SimulatorBackend(program)),
                          float_format="%.3f")


class TestEscape:
    def test_printable(self):
        assert escape_char(ord("a")) == "a"

    def test_specials(self):
        assert escape_char(10) == "\\n"
        assert escape_char(0) == "\\000"
        assert escape_char(ord("'")) == "\\'"

    def test_octal_fallback(self):
        assert escape_char(1) == "\\001"
        assert escape_char(200) == "\\310"


class TestScalars:
    def test_int(self, formatter):
        assert formatter.format(rvalue(INT, -5, SymText("v"))) == "-5"

    def test_double_paper_style(self, formatter):
        assert formatter.format(rvalue(DOUBLE, 2.5, SymText("v"))) == "2.500"

    def test_char_with_glyph(self, formatter):
        assert formatter.format(rvalue(CHAR, 65, SymText("v"))) == "65 'A'"

    def test_null_pointer(self, formatter):
        p = rvalue(PointerType(INT), 0, SymText("p"))
        assert formatter.format(p) == "0x0"

    def test_pointer_hex(self, formatter):
        p = rvalue(PointerType(INT), 0x16820, SymText("p"))
        assert formatter.format(p) == "0x16820"

    def test_char_pointer_chases_string(self, formatter, program):
        addr = program.intern_string("duel")
        p = rvalue(PointerType(CHAR), addr, SymText("s"))
        assert formatter.format(p) == '"duel"'

    def test_char_pointer_bad_address_falls_back_to_hex(self, formatter):
        p = rvalue(PointerType(CHAR), 0x99999999, SymText("s"))
        assert formatter.format(p) == "0x99999999"

    def test_enum_by_name(self, formatter, program):
        program.declare("enum color {RED, GREEN} c;")
        e = program.types.enums["color"]
        assert formatter.format(rvalue(e, 1, SymText("c"))) == "GREEN"
        assert formatter.format(rvalue(e, 9, SymText("c"))) == "9"


class TestAggregates:
    def test_struct(self, formatter, program):
        program.declare("struct pt {int x; int y;} p;")
        sym = program.lookup("p")
        program.write_value(sym.address, INT, 3)
        program.write_value(sym.address + 4, INT, 4)
        out = formatter.format(lvalue(sym.ctype, sym.address, SymText("p")))
        assert out == "{x = 3, y = 4}"

    def test_int_array(self, formatter, program):
        from repro.target import builder
        sym = builder.int_array(program, "a", [1, 2, 3])
        out = formatter.format(lvalue(sym.ctype, sym.address, SymText("a")))
        assert out == "{1, 2, 3}"

    def test_char_array_as_string(self, formatter, program):
        (sym,) = program.declare("char buf[8];")
        program.memory.write(sym.address, b"hi\0")
        out = formatter.format(lvalue(sym.ctype, sym.address, SymText("b")))
        assert out == '"hi"'


class TestSessionDisplay:
    def test_constant_only_joined_line(self, empty_session):
        assert empty_session.eval_lines("(1..3)+(5,9)") == ["6 10 7 11 8 12"]

    def test_constant_float_paper_output(self, empty_session):
        assert empty_session.eval_lines("1 + (double)3/2") == ["2.500"]

    def test_stateful_prints_sym_equals_value(self, array_session):
        assert array_session.eval_lines("x[2]") == ["x[2] = 7"]
        # A constant index keeps its source spelling.
        assert array_session.eval_lines("x[1+2]") == ["x[1+2] = 0"]

    def test_reduction_prints_bare_value(self, array_session):
        assert array_session.eval_lines("#/(x[..10])") == ["10"]

    def test_empty_output(self, empty_session):
        assert empty_session.eval_lines("1..0") == []

    def test_duel_prints_to_stream(self, array_session):
        out = io.StringIO()
        array_session.duel("x[2]", out=out)
        assert out.getvalue() == "x[2] = 7\n"

    def test_duel_prints_errors_not_raises(self, empty_session):
        out = io.StringIO()
        empty_session.duel("nosuch", out=out)
        assert "no symbol" in out.getvalue()

    def test_aliases_persist_across_commands(self, empty_session):
        empty_session.eval("v := 41")
        assert empty_session.eval_values("v + 1") == [42]
        empty_session.clear_aliases()
        from repro.core.errors import DuelNameError
        with pytest.raises(DuelNameError):
            empty_session.eval("v")

    def test_values_line(self, empty_session):
        assert empty_session.values_line("(1,2)+10") == "11 12"

    def test_non_symbolic_mode_prints_values(self, program):
        from repro.target import builder
        builder.int_array(program, "x", [5, -6])
        duel = DuelSession(SimulatorBackend(program), symbolic=False)
        assert duel.eval_lines("x[..2]") == ["5", "-6"]

    def test_lookup_count_increases(self, array_session):
        before = array_session.lookup_count
        array_session.eval("x[..10]")
        assert array_session.lookup_count == before + 1
