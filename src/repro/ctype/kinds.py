"""Type-kind enumeration and the primitive-type catalogue.

The catalogue pins down size, alignment, signedness and conversion rank
for every C primitive on the simulated target.  The default model is
LP64 little-endian (modern Unix); the paper's DECstation/SPARC hosts
were ILP32, and an ILP32 catalogue is provided for configuration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Kind(enum.Enum):
    """Discriminates the members of the CType hierarchy."""

    VOID = "void"
    BOOL = "bool"
    CHAR = "char"
    SCHAR = "signed char"
    UCHAR = "unsigned char"
    SHORT = "short"
    USHORT = "unsigned short"
    INT = "int"
    UINT = "unsigned int"
    LONG = "long"
    ULONG = "unsigned long"
    LLONG = "long long"
    ULLONG = "unsigned long long"
    FLOAT = "float"
    DOUBLE = "double"
    LDOUBLE = "long double"
    POINTER = "pointer"
    ARRAY = "array"
    STRUCT = "struct"
    UNION = "union"
    ENUM = "enum"
    FUNCTION = "function"
    TYPEDEF = "typedef"
    BITFIELD = "bitfield"

    # Members are singletons compared by identity, and nothing persists
    # a Python hash of one (fingerprints use sha256), so hash by
    # identity too: Enum's own name-based __hash__ is a Python-level
    # call on every dict and frozenset lookup keyed by a kind.
    __hash__ = object.__hash__

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Kind.{self.name}"


@dataclass(frozen=True)
class PrimitiveInfo:
    """Layout and classification facts for one primitive kind."""

    kind: Kind
    size: int
    align: int
    signed: bool
    is_float: bool
    rank: int  # C integer-conversion rank; floats ranked above all ints


def _info(kind: Kind, size: int, signed: bool, is_float: bool, rank: int) -> PrimitiveInfo:
    return PrimitiveInfo(kind=kind, size=size, align=size, signed=signed,
                         is_float=is_float, rank=rank)


#: LP64 primitive catalogue (char=1, short=2, int=4, long=8, ptr=8).
PRIMITIVES: dict[Kind, PrimitiveInfo] = {
    Kind.VOID: PrimitiveInfo(Kind.VOID, 0, 1, False, False, 0),
    Kind.BOOL: _info(Kind.BOOL, 1, False, False, 1),
    Kind.CHAR: _info(Kind.CHAR, 1, True, False, 2),
    Kind.SCHAR: _info(Kind.SCHAR, 1, True, False, 2),
    Kind.UCHAR: _info(Kind.UCHAR, 1, False, False, 2),
    Kind.SHORT: _info(Kind.SHORT, 2, True, False, 3),
    Kind.USHORT: _info(Kind.USHORT, 2, False, False, 3),
    Kind.INT: _info(Kind.INT, 4, True, False, 4),
    Kind.UINT: _info(Kind.UINT, 4, False, False, 4),
    Kind.LONG: _info(Kind.LONG, 8, True, False, 5),
    Kind.ULONG: _info(Kind.ULONG, 8, False, False, 5),
    Kind.LLONG: _info(Kind.LLONG, 8, True, False, 6),
    Kind.ULLONG: _info(Kind.ULLONG, 8, False, False, 6),
    Kind.FLOAT: _info(Kind.FLOAT, 4, True, True, 10),
    Kind.DOUBLE: _info(Kind.DOUBLE, 8, True, True, 11),
    # long double is modelled as a 16-byte slot holding a double value.
    Kind.LDOUBLE: PrimitiveInfo(Kind.LDOUBLE, 16, 16, True, True, 12),
}

#: ILP32 catalogue matching the paper's workstations (long=4, ptr=4).
PRIMITIVES_ILP32: dict[Kind, PrimitiveInfo] = dict(PRIMITIVES)
PRIMITIVES_ILP32[Kind.LONG] = _info(Kind.LONG, 4, True, False, 5)
PRIMITIVES_ILP32[Kind.ULONG] = _info(Kind.ULONG, 4, False, False, 5)
PRIMITIVES_ILP32[Kind.LDOUBLE] = PrimitiveInfo(Kind.LDOUBLE, 8, 8, True, True, 12)

#: Pointer width of the default (LP64) model, in bytes.
POINTER_SIZE = 8
POINTER_ALIGN = 8

#: Byte order of the simulated target.
BYTE_ORDER = "little"

#: Kinds that participate in integer arithmetic.
INTEGER_KINDS = frozenset(
    k for k, info in PRIMITIVES.items()
    if not info.is_float and k not in (Kind.VOID,)
)

#: Kinds that are floating point.
FLOAT_KINDS = frozenset(k for k, info in PRIMITIVES.items() if info.is_float)

#: Map from the unsigned kind paired with each signed kind (and back).
UNSIGNED_OF: dict[Kind, Kind] = {
    Kind.CHAR: Kind.UCHAR,
    Kind.SCHAR: Kind.UCHAR,
    Kind.SHORT: Kind.USHORT,
    Kind.INT: Kind.UINT,
    Kind.LONG: Kind.ULONG,
    Kind.LLONG: Kind.ULLONG,
}


def int_bounds(kind: Kind, catalogue: dict[Kind, PrimitiveInfo] | None = None) -> tuple[int, int]:
    """Return the inclusive (min, max) representable by an integer kind."""
    info = (catalogue or PRIMITIVES)[kind]
    if info.is_float or kind is Kind.VOID:
        raise ValueError(f"{kind} is not an integer kind")
    bits = info.size * 8
    if info.signed:
        return -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return 0, (1 << bits) - 1


def wrap_int(value: int, kind: Kind, catalogue: dict[Kind, PrimitiveInfo] | None = None) -> int:
    """Reduce ``value`` modulo the kind's width, as C integer overflow does.

    Signed overflow is undefined in C; like most debuggers we adopt
    two's-complement wraparound, which matches the bytes in memory.
    """
    info = (catalogue or PRIMITIVES)[kind]
    bits = info.size * 8
    value &= (1 << bits) - 1
    if info.signed and value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


def int_wrapper(kind: Kind):
    """``lambda value: wrap_int(int(value), kind)`` with the width
    decided now, for code that converts many values to one kind.

    Over the kind's inclusive bounds the wrap is
    ``((v - lo) & mask) + lo``; a value already in range, the usual
    case, is returned after one chained comparison.
    """
    lo, hi = int_bounds(kind)
    mask = hi - lo

    def wrap(value) -> int:
        value = int(value)
        return value if lo <= value <= hi else ((value - lo) & mask) + lo
    return wrap
