"""Formatter edge cases: nested aggregates, elision, chars, strings.

Complements ``test_format_session.py`` (the paper-session happy
paths) with the boundary behaviour: nested struct/array rendering,
``MAX_AGGREGATE`` elision, ``MAX_STRING`` truncation, bitfield-free
anonymous members, enum fallbacks, and non-lvalue aggregates.
"""

import pytest

from repro import SimulatorBackend
from repro.core.format import (MAX_AGGREGATE, MAX_STRING,
                               ValueFormatter, escape_char)
from repro.core.symbolic import SymText
from repro.core.values import ValueOps, lvalue, rvalue
from repro.ctype.layout import MemberDecl, complete_struct
from repro.ctype.types import (ArrayType, CHAR, EnumType, INT,
                               PointerType)
from repro.target import builder


@pytest.fixture
def formatter(program):
    return ValueFormatter(ValueOps(SimulatorBackend(program)),
                          float_format="%.3f")


def define_struct(program, tag, members):
    record = program.types.struct_tag(tag)
    complete_struct(record, [MemberDecl(n, t) for n, t in members])
    return record


class TestNestedAggregates:
    def test_struct_in_struct(self, program, formatter):
        inner = define_struct(program, "pt", [("x", INT), ("y", INT)])
        outer = define_struct(program, "seg",
                              [("a", inner), ("b", inner)])
        symbol = program.define("s", outer)
        for offset, value in zip(range(0, 16, 4), (1, 2, 3, 4)):
            program.write_value(symbol.address + offset, INT, value)
        text = formatter.format(
            lvalue(outer, symbol.address, SymText("s")))
        assert text == "{a = {x = 1, y = 2}, b = {x = 3, y = 4}}"

    def test_array_of_structs(self, program, formatter):
        point = define_struct(program, "p2", [("x", INT), ("y", INT)])
        arr = ArrayType(point, 2)
        symbol = program.define("pts", arr)
        for offset, value in zip(range(0, 16, 4), (9, 8, 7, 6)):
            program.write_value(symbol.address + offset, INT, value)
        text = formatter.format(
            lvalue(arr, symbol.address, SymText("pts")))
        assert text == "{{x = 9, y = 8}, {x = 7, y = 6}}"

    def test_struct_with_array_member(self, program, formatter):
        rec = define_struct(program, "buf",
                            [("n", INT), ("data", ArrayType(INT, 3))])
        symbol = program.define("b", rec)
        for offset, value in zip(range(0, 16, 4), (3, 10, 20, 30)):
            program.write_value(symbol.address + offset, INT, value)
        text = formatter.format(
            lvalue(rec, symbol.address, SymText("b")))
        assert text == "{n = 3, data = {10, 20, 30}}"

    def test_non_lvalue_record_is_opaque(self, program, formatter):
        rec = define_struct(program, "op", [("x", INT)])
        assert formatter.format(rvalue(rec, None, SymText("v"))) \
            == "<struct op>"


class TestElision:
    def test_long_array_elided(self, program, formatter):
        symbol = builder.int_array(program, "big",
                                   list(range(MAX_AGGREGATE + 8)))
        text = formatter.format(
            lvalue(symbol.ctype, symbol.address, SymText("big")))
        assert text.endswith(", ...}")
        assert text.count(",") == MAX_AGGREGATE  # 24 elements + ellipsis
        assert "23" in text and "25" not in text

    def test_array_at_limit_not_elided(self, program, formatter):
        symbol = builder.int_array(program, "exact",
                                   list(range(MAX_AGGREGATE)))
        text = formatter.format(
            lvalue(symbol.ctype, symbol.address, SymText("exact")))
        assert not text.endswith(", ...}")

    def test_unsized_array_is_opaque(self, program, formatter):
        arr = ArrayType(INT, None)
        assert formatter.format(lvalue(arr, 0x1000, SymText("a"))) \
            == f"<{arr.name()}>"


class TestStrings:
    def test_char_array_prints_as_string(self, program, formatter):
        arr = ArrayType(CHAR, 6)
        symbol = program.define("word", arr)
        program.memory.write(symbol.address, b"duel\0\0")
        assert formatter.format(
            lvalue(arr, symbol.address, SymText("word"))) == '"duel"'

    def test_string_escapes(self, program, formatter):
        addr = program.intern_string('a"b\n')
        p = rvalue(PointerType(CHAR), addr, SymText("s"))
        assert formatter.format(p) == '"a\\"b\\n"'

    def test_unterminated_string_truncates(self, program, formatter):
        arr = ArrayType(CHAR, MAX_STRING + 50)
        symbol = program.define("lots", arr)
        program.memory.write(symbol.address, b"x" * (MAX_STRING + 50))
        text = formatter.format(
            lvalue(arr, symbol.address, SymText("lots")))
        assert text.endswith('"...')
        assert len(text) == MAX_STRING + 2 + 3  # quotes + ellipsis

    @pytest.mark.parametrize("slack", [0, 1, 2])
    def test_string_ending_at_its_region_end(self, program, formatter,
                                             slack):
        """The NUL ``slack`` bytes before the end of a 16-byte region:
        the block read runs off the region, and the string still
        prints whole."""
        base = 0x40000000
        program.memory.map_new("tail", base, 16)
        word = b"duel" * 4
        word = word[:15 - slack]
        program.memory.write(base, word + b"\0")
        p = rvalue(PointerType(CHAR), base, SymText("s"))
        assert formatter.format(p) == '"' + word.decode() + '"'

    def test_string_running_off_its_region_prints_the_pointer(
            self, program, formatter):
        base = 0x40000000
        program.memory.map_new("tail", base, 16)
        program.memory.write(base, b"x" * 16)
        p = rvalue(PointerType(CHAR), base, SymText("s"))
        assert formatter.format(p) == f"{base:#x}"

    def test_a_string_is_one_read(self, program):
        reads = []

        class Counting(SimulatorBackend):
            def get_target_bytes(self, address, size):
                reads.append(size)
                return super().get_target_bytes(address, size)

        formatter = ValueFormatter(ValueOps(Counting(program)))
        addr = program.intern_string("file.c")
        p = rvalue(PointerType(CHAR), addr, SymText("s"))
        assert formatter.format(p) == '"file.c"'
        assert reads == [MAX_STRING]

    def test_chase_disabled_prints_hex(self, program):
        plain = ValueFormatter(ValueOps(SimulatorBackend(program)),
                               chase_strings=False)
        addr = program.intern_string("duel")
        p = rvalue(PointerType(CHAR), addr, SymText("s"))
        assert plain.format(p) == f"{addr:#x}"


class TestScalarEdges:
    def test_enum_names_and_falls_back(self, program, formatter):
        enum = EnumType("color", [("RED", 0), ("GREEN", 1)])
        assert formatter.format(rvalue(enum, 1, SymText("c"))) == "GREEN"
        assert formatter.format(rvalue(enum, 7, SymText("c"))) == "7"

    def test_void_result(self, formatter):
        assert formatter.format_raw(None, INT) == "void"

    def test_negative_char_keeps_decimal_and_glyph(self, formatter):
        from repro.ctype.types import SCHAR
        assert formatter.format(rvalue(SCHAR, -1, SymText("c"))) \
            == "-1 '\\377'"

    def test_quote_escaping_depends_on_context(self):
        assert escape_char(ord('"'), quote="'") == '\\"'
        assert escape_char(ord("'"), quote='"') == "'"
