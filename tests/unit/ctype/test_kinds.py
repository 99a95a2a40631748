"""Unit tests for the primitive catalogue (kinds.py)."""

import pickle

import pytest

from repro.ctype.kinds import (
    INTEGER_KINDS,
    Kind,
    PRIMITIVES,
    PRIMITIVES_ILP32,
    int_bounds,
    int_wrapper,
    wrap_int,
)


class TestCatalogue:
    def test_lp64_sizes(self):
        assert PRIMITIVES[Kind.CHAR].size == 1
        assert PRIMITIVES[Kind.SHORT].size == 2
        assert PRIMITIVES[Kind.INT].size == 4
        assert PRIMITIVES[Kind.LONG].size == 8
        assert PRIMITIVES[Kind.LLONG].size == 8
        assert PRIMITIVES[Kind.FLOAT].size == 4
        assert PRIMITIVES[Kind.DOUBLE].size == 8

    def test_ilp32_long_is_narrower(self):
        assert PRIMITIVES_ILP32[Kind.LONG].size == 4
        assert PRIMITIVES_ILP32[Kind.ULONG].size == 4

    def test_alignment_is_natural(self):
        for kind, info in PRIMITIVES.items():
            if kind is Kind.VOID:
                continue
            assert info.align == info.size

    def test_signedness(self):
        assert PRIMITIVES[Kind.CHAR].signed
        assert not PRIMITIVES[Kind.UCHAR].signed
        assert PRIMITIVES[Kind.INT].signed
        assert not PRIMITIVES[Kind.ULLONG].signed

    def test_rank_ordering(self):
        assert (PRIMITIVES[Kind.CHAR].rank
                < PRIMITIVES[Kind.SHORT].rank
                < PRIMITIVES[Kind.INT].rank
                < PRIMITIVES[Kind.LONG].rank
                < PRIMITIVES[Kind.LLONG].rank
                < PRIMITIVES[Kind.FLOAT].rank)

    def test_kinds_hash_by_identity(self):
        assert Kind.__hash__ is object.__hash__
        restored = pickle.loads(pickle.dumps({Kind.INT: "int"}))
        assert restored[Kind.INT] == "int"
        assert Kind.INT in INTEGER_KINDS and Kind.DOUBLE not in INTEGER_KINDS

    def test_integer_kinds_excludes_floats_and_void(self):
        assert Kind.INT in INTEGER_KINDS
        assert Kind.DOUBLE not in INTEGER_KINDS
        assert Kind.VOID not in INTEGER_KINDS


class TestBounds:
    def test_int_bounds(self):
        assert int_bounds(Kind.INT) == (-2**31, 2**31 - 1)
        assert int_bounds(Kind.UINT) == (0, 2**32 - 1)
        assert int_bounds(Kind.CHAR) == (-128, 127)
        assert int_bounds(Kind.UCHAR) == (0, 255)

    def test_bounds_reject_floats(self):
        with pytest.raises(ValueError):
            int_bounds(Kind.DOUBLE)

    def test_bounds_reject_void(self):
        with pytest.raises(ValueError):
            int_bounds(Kind.VOID)


class TestWrap:
    def test_wrap_identity_in_range(self):
        assert wrap_int(42, Kind.INT) == 42
        assert wrap_int(-42, Kind.INT) == -42

    def test_wrap_signed_overflow(self):
        assert wrap_int(2**31, Kind.INT) == -2**31
        assert wrap_int(2**31 - 1, Kind.INT) == 2**31 - 1
        assert wrap_int(-2**31 - 1, Kind.INT) == 2**31 - 1

    def test_wrap_unsigned_modulo(self):
        assert wrap_int(-1, Kind.UINT) == 2**32 - 1
        assert wrap_int(2**32 + 5, Kind.UINT) == 5

    def test_wrap_char(self):
        assert wrap_int(255, Kind.CHAR) == -1
        assert wrap_int(255, Kind.UCHAR) == 255
        assert wrap_int(256, Kind.UCHAR) == 0

    @pytest.mark.parametrize("kind", sorted(INTEGER_KINDS - {Kind.BOOL},
                                            key=lambda k: k.value))
    def test_wrapper_is_wrap_int_decided_once(self, kind):
        lo, hi = int_bounds(kind)
        wrap = int_wrapper(kind)
        for value in (0, 1, -1, lo, hi, lo - 1, hi + 1, 2 * hi + 3,
                      -3 * (hi + 1), 7.9, -7.9, True):
            assert wrap(value) == wrap_int(int(value), kind), value

