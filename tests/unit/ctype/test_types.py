"""Unit tests for the CType hierarchy."""

import pytest

from repro.ctype.layout import MemberDecl, make_struct, make_union
from repro.ctype.types import (
    ArrayType,
    CHAR,
    DOUBLE,
    EnumType,
    FunctionType,
    INT,
    LONG,
    PointerType,
    StructType,
    TypedefType,
    UINT,
    VOID,
    array_of,
    pointer_to,
)


class TestClassification:
    def test_int_is_integer_and_arithmetic(self):
        assert INT.is_integer and INT.is_arithmetic and INT.is_scalar
        assert not INT.is_pointer and not INT.is_float

    def test_double_is_float(self):
        assert DOUBLE.is_float and DOUBLE.is_arithmetic
        assert not DOUBLE.is_integer

    def test_void(self):
        assert VOID.is_void
        assert not VOID.is_arithmetic

    def test_pointer(self):
        p = pointer_to(INT)
        assert p.is_pointer and p.is_scalar
        assert p.size == 8 and p.align == 8
        assert p.target is INT

    def test_array(self):
        a = array_of(INT, 10)
        assert a.is_array and not a.is_scalar
        assert a.size == 40
        assert a.decay() == PointerType(INT)

    def test_decay_is_built_once_and_leaves_equality_alone(self):
        a = array_of(INT, 10)
        assert a.decay() is a.decay()
        assert a == array_of(INT, 10) and hash(a) == hash(array_of(INT, 10))

    def test_incomplete_array_size_raises(self):
        with pytest.raises(TypeError):
            _ = array_of(INT, None).size

    def test_function_type(self):
        f = FunctionType(INT, (pointer_to(CHAR),), varargs=True)
        assert f.is_function
        with pytest.raises(TypeError):
            _ = f.size


class TestNames:
    def test_primitive_names(self):
        assert INT.name() == "int"
        assert UINT.name() == "unsigned int"
        assert str(LONG) == "long"

    def test_derived_names(self):
        assert pointer_to(INT).name() == "int *"
        assert array_of(pointer_to(CHAR), 4).name() == "char * [4]"

    def test_record_names(self):
        assert StructType("symbol").name() == "struct symbol"
        assert StructType(None).name() == "struct <anonymous>"


class TestRecords:
    def test_incomplete_record_rejects_fields(self):
        s = StructType("fwd")
        assert not s.is_complete
        with pytest.raises(TypeError):
            _ = s.fields
        with pytest.raises(TypeError):
            _ = s.size

    def test_completion_and_lookup(self):
        s = make_struct("pair", [MemberDecl("a", INT), MemberDecl("b", INT)])
        assert s.is_complete
        assert s.field("a").offset == 0
        assert s.field("b").offset == 4
        assert s.field("missing") is None
        assert s.field_names() == ["a", "b"]

    def test_double_completion_rejected(self):
        s = make_struct("once", [MemberDecl("a", INT)])
        with pytest.raises(TypeError):
            s.complete([], 0, 1)

    def test_anonymous_member_lookup(self):
        inner = make_union(None, [MemberDecl("i", INT),
                                  MemberDecl("d", DOUBLE)])
        outer = make_struct("holder", [
            MemberDecl("tag", INT),
            MemberDecl("", inner),
        ])
        f = outer.field("d")
        assert f is not None
        assert f.offset == 8  # after tag + padding to double alignment
        assert "d" in outer.field_names()

    def test_self_referential_struct(self):
        node = StructType("node")
        make = [MemberDecl("value", INT), MemberDecl("next", pointer_to(node))]
        from repro.ctype.layout import complete_struct
        complete_struct(node, make)
        assert node.size == 16
        assert node.field("next").ctype.target is node


class TestEnum:
    def test_enum_is_int_like(self):
        e = EnumType("color", [("RED", 0), ("BLUE", 5)])
        assert e.is_integer
        assert e.size == 4
        assert e.name_of(5) == "BLUE"
        assert e.name_of(99) is None


class TestTypedef:
    def test_typedef_delegates(self):
        td = TypedefType("size_t", UINT)
        assert td.is_integer
        assert td.size == 4
        assert td.name() == "size_t"
        assert td.strip_typedefs() is UINT

    def test_nested_typedef_strips_fully(self):
        inner = TypedefType("a_t", INT)
        outer = TypedefType("b_t", inner)
        assert outer.strip_typedefs() is INT

    def test_typedef_of_record(self):
        s = make_struct("s", [MemberDecl("x", INT)])
        td = TypedefType("S", s)
        assert td.is_record
        assert td.size == s.size
