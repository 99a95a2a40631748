"""apply(): DUEL's own implementation of the C operators.

The paper: "Duel duplicates some debugger capabilities ... Duel
contains its own type and value representations and its own
implementation of the C operators."  This module is that ~1200-line
component: arithmetic with the usual conversions, pointer arithmetic,
comparisons, logical/bitwise operators, assignment (including compound
and bit-field forms), casts, sizeof, indexing, and dereference — all
over :class:`~repro.core.values.DuelValue`.

Type checking happens here, at evaluation time, as the paper requires
for expressions like ``(x,y).a`` where x and y may have different
struct types.  It happens once per operand-type pair, not once per
value: the first time an operator meets a pair of operand types, the
generic code below checks and converts as C requires and leaves a
*plan* — a closure with the pair's conversions, wrap width or stride
already decided — that later values of the same pair go straight to.
"""

from __future__ import annotations

import operator
from typing import Optional

from repro.ctype.convert import (
    convert_value,
    usual_arithmetic_conversions,
    integer_promote,
)
from repro.ctype.kinds import Kind, int_wrapper, wrap_int
from repro.ctype.types import (
    ArrayType,
    CType,
    EnumType,
    INT,
    LONG,
    PointerType,
    PrimitiveType,
    RecordType,
    ULONG,
)
from repro.core.errors import DuelMemoryError, DuelTypeError
from repro.core.symbolic import (
    PREC_ADDITIVE,
    PREC_BITAND,
    PREC_BITOR,
    PREC_BITXOR,
    PREC_EQUALITY,
    PREC_MULTIPLICATIVE,
    PREC_RELATIONAL,
    PREC_SHIFT,
    Sym,
    SymBinary,
    SymIndex,
    SymText,
    SymUnary,
)
from repro.core.values import DuelValue, ValueOps, lvalue, rvalue

#: C spelling -> symbolic precedence for binary operators.
BINARY_PREC = {
    "*": PREC_MULTIPLICATIVE, "/": PREC_MULTIPLICATIVE, "%": PREC_MULTIPLICATIVE,
    "+": PREC_ADDITIVE, "-": PREC_ADDITIVE,
    "<<": PREC_SHIFT, ">>": PREC_SHIFT,
    "<": PREC_RELATIONAL, ">": PREC_RELATIONAL,
    "<=": PREC_RELATIONAL, ">=": PREC_RELATIONAL,
    "==": PREC_EQUALITY, "!=": PREC_EQUALITY,
    "&": PREC_BITAND, "^": PREC_BITXOR, "|": PREC_BITOR,
}

_TESTS = {"<": operator.lt, ">": operator.gt, "<=": operator.le,
          ">=": operator.ge, "==": operator.eq, "!=": operator.ne}
_COMPARISONS = set(_TESTS)
_INT_ONLY = {"%", "<<", ">>", "&", "^", "|"}


class Apply:
    """Operator application bound to a backend (via :class:`ValueOps`)."""

    def __init__(self, ops: ValueOps):
        self.ops = ops
        #: Plans by (operator, left ctype, right ctype) of the loaded
        #: operands, the operator spelt ``"[]"`` for indexing and
        #: ``">?"``-style for :meth:`compare_true`; built by the generic
        #: code the first time a pair gets through its checks.
        self._plans: dict = {}

    # ==================================================================
    # binary operators
    # ==================================================================
    def binary(self, op: str, a: DuelValue, b: DuelValue,
               sym: Optional[Sym] = None) -> DuelValue:
        """Apply a C binary operator; returns the result value."""
        if sym is None:
            sym = SymBinary(op, a.sym, b.sym, BINARY_PREC.get(op, PREC_ADDITIVE))
        ra = self.ops.load_value(a)
        rb = self.ops.load_value(b)
        plan = self._plans.get((op, ra.ctype, rb.ctype))
        if plan is not None:
            return plan(ra.value, rb.value, sym)
        ta = ra.ctype.strip_typedefs()
        tb = rb.ctype.strip_typedefs()
        if op in _COMPARISONS:
            return self._compare(op, ra, rb, sym)
        if op == "+":
            if isinstance(ta, PointerType) and tb.is_integer:
                return self._pointer_add(ra, int(rb.value), sym)
            if ta.is_integer and isinstance(tb, PointerType):
                return self._pointer_add(rb, int(ra.value), sym)
        if op == "-":
            if isinstance(ta, PointerType) and isinstance(tb, PointerType):
                return self._pointer_diff(ra, rb, sym)
            if isinstance(ta, PointerType) and tb.is_integer:
                return self._pointer_add(ra, -int(rb.value), sym)
        if isinstance(ta, PointerType) or isinstance(tb, PointerType):
            raise DuelTypeError(f"invalid pointer operands to {op!r}",
                                sym.render())
        return self._arith(op, ra, rb, sym)

    def _arith(self, op: str, ra: DuelValue, rb: DuelValue,
               sym: Sym) -> DuelValue:
        ta, tb = ra.ctype, rb.ctype
        if not (ta.is_arithmetic and tb.is_arithmetic):
            raise DuelTypeError(
                f"non-arithmetic operands to {op!r} "
                f"({ta.name()} and {tb.name()})", sym.render())
        common = usual_arithmetic_conversions(ta, tb)
        stripped = common.strip_typedefs()
        if op in _INT_ONLY and stripped.is_float:
            raise DuelTypeError(f"floating operand to {op!r}", sym.render())
        if stripped.is_float:
            return rvalue(common, _FLOAT_ARITH[op](
                convert_value(ra.value, ta, common),
                convert_value(rb.value, tb, common)), sym)
        plan = self._plans[(op, ta, tb)] = _int_arith(op, common)
        return plan(ra.value, rb.value, sym)

    def _compare(self, op: str, ra: DuelValue, rb: DuelValue,
                 sym: Sym) -> DuelValue:
        test, keep = self._comparison(op, ra, rb, lambda: sym)

        def plan(x, y, sym):
            return DuelValue(INT, sym, int(test(x, y)))
        if keep:
            self._plans[(op, ra.ctype, rb.ctype)] = plan
        return plan(ra.value, rb.value, sym)

    def _comparison(self, op: str, ra: DuelValue, rb: DuelValue, sym_of):
        """``(test, keep)``: the test of ``ra op rb`` on two raw values
        with the C conversions decided, and whether it may serve every
        later value of this pair as its plan (not for a floating pair,
        which is compared generically on each value).

        A bad pair raises here, its message built by ``sym_of()``.
        """
        ta = ra.ctype.strip_typedefs()
        tb = rb.ctype.strip_typedefs()
        cmp = _TESTS[op]
        if isinstance(ta, PointerType) or isinstance(tb, PointerType):
            ok_a = isinstance(ta, PointerType) or ta.is_integer
            ok_b = isinstance(tb, PointerType) or tb.is_integer
            if not (ok_a and ok_b):
                raise DuelTypeError(
                    f"invalid pointer comparison with {op!r}",
                    sym_of().render())
            return (lambda x, y: cmp(int(x), int(y))), True
        if not (ta.is_arithmetic and tb.is_arithmetic):
            raise DuelTypeError(
                f"non-arithmetic operands to {op!r}", sym_of().render())
        ca, cb = ra.ctype, rb.ctype
        common = usual_arithmetic_conversions(ca, cb)
        if common.is_float:
            return (lambda x, y: cmp(convert_value(x, ca, common),
                                     convert_value(y, cb, common))), False
        return _int_test(cmp, common.kind), True

    def compare_true(self, op: str, a: DuelValue, b: DuelValue) -> bool:
        """The raw truth of ``a op b`` (used by ``>?`` and friends)."""
        ra = self.ops.load_value(a)
        rb = self.ops.load_value(b)
        base = op.rstrip("?")
        key = (base + "?", ra.ctype, rb.ctype)
        test = self._plans.get(key)
        if test is None:
            test, keep = self._comparison(
                base, ra, rb,
                lambda: SymBinary(op, a.sym, b.sym, PREC_RELATIONAL))
            if keep:
                self._plans[key] = test
        return test(ra.value, rb.value)

    # -- pointer arithmetic ------------------------------------------------
    def _pointer_add(self, ptr: DuelValue, delta: int, sym: Sym) -> DuelValue:
        ptype = ptr.ctype.strip_typedefs()
        assert isinstance(ptype, PointerType)
        stride = self._stride(ptype, sym)
        return rvalue(ptr.ctype, int(ptr.value) + delta * stride, sym)

    def _pointer_diff(self, pa: DuelValue, pb: DuelValue, sym: Sym) -> DuelValue:
        ta = pa.ctype.strip_typedefs()
        stride = self._stride(ta, sym)
        return rvalue(LONG, (int(pa.value) - int(pb.value)) // stride, sym)

    def _stride(self, ptype: PointerType, sym: Sym) -> int:
        target = ptype.target.strip_typedefs()
        if target.is_void or target.is_function:
            return 1
        try:
            return max(target.size, 1)
        except TypeError:
            raise DuelTypeError(
                f"arithmetic on pointer to incomplete type {target.name()}",
                sym.render()) from None

    # ==================================================================
    # unary operators
    # ==================================================================
    def negate(self, v: DuelValue, sym: Optional[Sym] = None) -> DuelValue:
        r = self.ops.load_value(v)
        sym = sym or SymUnary("-", v.sym)
        if not r.ctype.is_arithmetic:
            raise DuelTypeError("unary - on non-arithmetic value", sym.render())
        promoted = integer_promote(r.ctype) if r.ctype.is_integer else r.ctype
        stripped = promoted.strip_typedefs()
        result = -r.value
        if not stripped.is_float:
            result = wrap_int(int(result), _kind_of(stripped))
        return rvalue(promoted, result, sym)

    def plus(self, v: DuelValue, sym: Optional[Sym] = None) -> DuelValue:
        r = self.ops.load_value(v)
        sym = sym or SymUnary("+", v.sym)
        if not r.ctype.is_arithmetic:
            raise DuelTypeError("unary + on non-arithmetic value", sym.render())
        return rvalue(r.ctype, r.value, sym)

    def bitnot(self, v: DuelValue, sym: Optional[Sym] = None) -> DuelValue:
        r = self.ops.load_value(v)
        sym = sym or SymUnary("~", v.sym)
        if not r.ctype.is_integer:
            raise DuelTypeError("~ on non-integer value", sym.render())
        promoted = integer_promote(r.ctype)
        stripped = promoted.strip_typedefs()
        return rvalue(promoted,
                      wrap_int(~int(r.value), _kind_of(stripped)), sym)

    def lognot(self, v: DuelValue, sym: Optional[Sym] = None) -> DuelValue:
        sym = sym or SymUnary("!", v.sym)
        return rvalue(INT, int(not self.ops.truthy(v)), sym)

    def deref(self, v: DuelValue, sym: Optional[Sym] = None,
              pattern: str = "*x") -> DuelValue:
        """``*p``: pointer rvalue -> lvalue of the pointed-to type."""
        r = self.ops.load_value(v)
        sym = sym or SymUnary("*", v.sym)
        stripped = r.ctype.strip_typedefs()
        if isinstance(stripped, PointerType):
            address = int(r.value)
            self._check_pointer(address, _checked_size(stripped.target), v,
                                pattern)
            return lvalue(stripped.target, address, sym)
        if isinstance(stripped, ArrayType):
            return lvalue(stripped.element, v.address, sym)
        raise DuelTypeError(
            f"dereference of non-pointer ({r.ctype.name()})", sym.render())

    def addressof(self, v: DuelValue, sym: Optional[Sym] = None) -> DuelValue:
        sym = sym or SymUnary("&", v.sym)
        if v.func_name is not None:
            symbol = self.ops.backend.get_target_variable(v.func_name)
            return rvalue(PointerType(v.ctype), symbol.address, sym)
        if not v.is_lvalue:
            raise DuelTypeError("& of non-lvalue", sym.render())
        if v.is_bitfield:
            raise DuelTypeError("& of bit-field", sym.render())
        return rvalue(PointerType(v.ctype), v.address, sym)

    def sizeof(self, ctype: CType, sym: Sym) -> DuelValue:
        try:
            size = ctype.size
        except TypeError as exc:
            raise DuelTypeError(str(exc), sym.render()) from None
        return rvalue(ULONG, size, sym)

    # ==================================================================
    # indexing, fields, casts
    # ==================================================================
    def index(self, base: DuelValue, index: DuelValue,
              sym: Optional[Sym] = None) -> DuelValue:
        """``e1[e2]`` with C semantics (pointer or array base)."""
        if sym is None:
            sym = SymIndex(base.sym, index.sym)
        rb = self.ops.load_value(base)
        ri = self.ops.load_value(index)
        key = ("[]", rb.ctype, ri.ctype)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._index_plan(base, rb, ri, sym)
        swap, element, stride, size = plan
        if swap:
            rb, ri = ri, rb
        address = int(rb.value) + int(ri.value) * stride
        self._check_pointer(address, size, base, "x[y]")
        return DuelValue(element, sym, None, address)

    def _index_plan(self, base: DuelValue, rb: DuelValue, ri: DuelValue,
                    sym: Sym) -> tuple:
        """``(swap, element, stride, checked size)`` for indexing a
        loaded ``rb`` by a loaded ``ri``; raises on a bad pair."""
        tb = rb.ctype.strip_typedefs()
        swap = False
        if not ri.ctype.is_integer:
            # C allows i[p]; normalise.
            if isinstance(ri.ctype.strip_typedefs(), PointerType) and \
                    rb.ctype.is_integer:
                swap = True
                tb = ri.ctype.strip_typedefs()
            else:
                raise DuelTypeError("array index is not an integer",
                                    sym.render())
        if not isinstance(tb, PointerType):
            raise DuelTypeError(
                f"indexed value is not array or pointer ({base.ctype.name()})",
                sym.render())
        element = tb.target
        return swap, element, self._stride(tb, sym), _checked_size(element)

    def field(self, base: DuelValue, name: str, arrow: bool,
              sym: Sym) -> DuelValue:
        """Plain C member access (used by the with machinery)."""
        operand = base
        if arrow:
            operand = self.deref(base, sym=base.sym, pattern="x->y")
        record = operand.ctype.strip_typedefs()
        if not isinstance(record, RecordType):
            raise DuelTypeError(
                f"member access on non-record ({operand.ctype.name()})",
                sym.render())
        f = record.field(name)
        if f is None:
            raise DuelTypeError(
                f"no member {name!r} in {record.name()}", sym.render())
        if not operand.is_lvalue:
            raise DuelTypeError("member access on non-lvalue record",
                                sym.render())
        return DuelValue(
            ctype=f.ctype, sym=sym,
            address=operand.address + f.offset,
            bit_offset=f.bit_offset, bit_width=f.bit_width)

    def cast(self, ctype: CType, v: DuelValue, sym: Sym) -> DuelValue:
        stripped = ctype.strip_typedefs()
        if stripped.is_void:
            return rvalue(ctype, None, sym)
        if isinstance(stripped, RecordType):
            raise DuelTypeError("cast to record type", sym.render())
        r = self.ops.load_value(v)
        try:
            converted = convert_value(r.value, r.ctype, ctype)
        except TypeError as exc:
            raise DuelTypeError(str(exc), sym.render()) from None
        return rvalue(ctype, converted, sym)

    # ==================================================================
    # assignment
    # ==================================================================
    def assign(self, dest: DuelValue, src: DuelValue, sym: Sym) -> DuelValue:
        """``dest = src``; returns dest's new value as the result."""
        stripped = dest.ctype.strip_typedefs()
        if isinstance(stripped, RecordType):
            self.ops.store(dest, src)
            return dest.with_sym(sym)
        r = self.ops.load_value(src)
        try:
            converted = convert_value(r.value, r.ctype, dest.ctype)
        except TypeError as exc:
            raise DuelTypeError(str(exc), sym.render()) from None
        self.ops.store(dest, converted)
        return DuelValue(ctype=dest.ctype, sym=sym, value=None,
                         address=dest.address,
                         bit_offset=dest.bit_offset,
                         bit_width=dest.bit_width)

    def compound_assign(self, op: str, dest: DuelValue, src: DuelValue,
                        sym: Sym) -> DuelValue:
        """``dest op= src``."""
        combined = self.binary(op, dest, src, sym=sym)
        return self.assign(dest, combined, sym)

    def incdec(self, op: str, v: DuelValue, postfix: bool,
               sym: Sym) -> DuelValue:
        """``++``/``--``, both fixities; returns old or new value."""
        old = self.ops.load_value(v)
        one = rvalue(INT, 1, SymText("1"))
        updated = self.binary("+" if op == "++" else "-", old, one, sym=sym)
        self.assign(v, updated, sym)
        result = old if postfix else self.ops.load_value(v)
        return result.with_sym(sym)

    # ==================================================================
    # helpers
    # ==================================================================
    def _check_pointer(self, address: int, size: int, origin: DuelValue,
                       pattern: str) -> None:
        """Fault early, with the paper's error format, on bad pointers
        (``size``: the bytes that must be mapped there)."""
        if address == 0 or not self.ops.backend.is_mapped(address, size):
            raise DuelMemoryError(
                "x", pattern, origin.sym.render(), f"lvalue {address:#x}")


def _checked_size(target: CType) -> int:
    """Bytes that must be mapped behind a pointer to ``target``."""
    try:
        return max(target.strip_typedefs().size, 1)
    except TypeError:
        return 1


def _int_test(cmp, kind: Kind):
    """The plan of a comparison converting both operands to ``kind``."""
    wrap = int_wrapper(kind)
    return lambda x, y: cmp(wrap(x), wrap(y))


def _int_arith(op: str, common: PrimitiveType):
    """The plan of ``op`` on two operands of integer type ``common``."""
    fn = _INT_ARITH[op]
    wrap = int_wrapper(common.kind)
    divides = op in ("/", "%")

    def plan(x, y, sym):
        x, y = wrap(x), wrap(y)
        if divides and y == 0:
            raise DuelTypeError("division by zero", sym.render())
        return DuelValue(common, sym, wrap(fn(x, y)))
    return plan


def _c_div(x: int, y: int) -> int:
    """C integer division truncates toward zero."""
    q = abs(x) // abs(y)
    return q if (x >= 0) == (y >= 0) else -q


def _c_mod(x: int, y: int) -> int:
    """C remainder: (x/y)*y + x%y == x."""
    return x - _c_div(x, y) * y


_INT_ARITH = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": _c_div, "%": _c_mod,
    "<<": lambda x, y: x << (y & 63), ">>": lambda x, y: x >> (y & 63),
    "&": operator.and_, "^": operator.xor, "|": operator.or_,
}
_FLOAT_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
                "/": operator.truediv}


def _kind_of(stripped: CType) -> Kind:
    if isinstance(stripped, EnumType):
        return Kind.INT
    if isinstance(stripped, PrimitiveType):
        return stripped.kind
    if isinstance(stripped, PointerType):
        return Kind.ULONG
    return Kind.INT

