"""The CType hierarchy.

Types are immutable value objects except for record types
(struct/union/enum), which may be declared first and completed later to
support self-referential declarations such as

    struct symbol { char *name; int scope; struct symbol *next; };

Type identity follows C: primitives compare by kind, derived types
structurally, and records nominally (by object identity, with a tag for
display).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.ctype.kinds import (
    BYTE_ORDER,
    FLOAT_KINDS,
    INTEGER_KINDS,
    Kind,
    POINTER_ALIGN,
    POINTER_SIZE,
    PRIMITIVES,
)


class CType:
    """Base class of all C types in the model."""

    kind: Kind

    # --- classification helpers -------------------------------------
    @property
    def is_integer(self) -> bool:
        return False

    @property
    def is_float(self) -> bool:
        return False

    @property
    def is_arithmetic(self) -> bool:
        return self.is_integer or self.is_float

    @property
    def is_pointer(self) -> bool:
        return False

    @property
    def is_array(self) -> bool:
        return False

    @property
    def is_record(self) -> bool:
        return False

    @property
    def is_function(self) -> bool:
        return False

    @property
    def is_void(self) -> bool:
        return False

    @property
    def is_scalar(self) -> bool:
        return self.is_arithmetic or self.is_pointer

    def strip_typedefs(self) -> "CType":
        """Resolve through typedef layers to the underlying type."""
        return self

    # --- layout (filled in by repro.ctype.layout) --------------------
    @property
    def size(self) -> int:
        """sizeof() in bytes."""
        raise NotImplementedError

    @property
    def align(self) -> int:
        """Required alignment in bytes."""
        raise NotImplementedError

    # --- display ------------------------------------------------------
    def name(self) -> str:
        """C spelling of the type (approximate, for display)."""
        raise NotImplementedError

    def __str__(self) -> str:
        return self.name()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name()!r}>"


@dataclass(frozen=True)
class PrimitiveType(CType):
    """A C primitive: void, _Bool, the integer family, the float family."""

    kind: Kind

    def __post_init__(self) -> None:
        if self.kind not in PRIMITIVES:
            raise ValueError(f"not a primitive kind: {self.kind}")

    @property
    def is_integer(self) -> bool:
        return self.kind in INTEGER_KINDS

    @property
    def is_float(self) -> bool:
        return self.kind in FLOAT_KINDS

    @property
    def is_void(self) -> bool:
        return self.kind is Kind.VOID

    @property
    def signed(self) -> bool:
        return PRIMITIVES[self.kind].signed

    @property
    def rank(self) -> int:
        return PRIMITIVES[self.kind].rank

    @property
    def size(self) -> int:
        return PRIMITIVES[self.kind].size

    @property
    def align(self) -> int:
        return PRIMITIVES[self.kind].align

    def name(self) -> str:
        return self.kind.value


# Singleton primitive instances (compare equal by dataclass equality).
VOID = PrimitiveType(Kind.VOID)
BOOL = PrimitiveType(Kind.BOOL)
CHAR = PrimitiveType(Kind.CHAR)
SCHAR = PrimitiveType(Kind.SCHAR)
UCHAR = PrimitiveType(Kind.UCHAR)
SHORT = PrimitiveType(Kind.SHORT)
USHORT = PrimitiveType(Kind.USHORT)
INT = PrimitiveType(Kind.INT)
UINT = PrimitiveType(Kind.UINT)
LONG = PrimitiveType(Kind.LONG)
ULONG = PrimitiveType(Kind.ULONG)
LLONG = PrimitiveType(Kind.LLONG)
ULLONG = PrimitiveType(Kind.ULLONG)
FLOAT = PrimitiveType(Kind.FLOAT)
DOUBLE = PrimitiveType(Kind.DOUBLE)
LDOUBLE = PrimitiveType(Kind.LDOUBLE)


@dataclass(frozen=True)
class PointerType(CType):
    """Pointer to ``target`` type."""

    target: CType
    kind: Kind = field(default=Kind.POINTER, init=False)

    @property
    def is_pointer(self) -> bool:
        return True

    @property
    def size(self) -> int:
        return POINTER_SIZE

    @property
    def align(self) -> int:
        return POINTER_ALIGN

    def name(self) -> str:
        inner = self.target.name()
        if self.target.is_function:
            return f"{inner} (*)"
        return f"{inner} *"


@dataclass(frozen=True)
class ArrayType(CType):
    """Array of ``length`` elements of ``element`` type.

    ``length is None`` models an incomplete array (``char []``).
    """

    element: CType
    length: Optional[int]
    kind: Kind = field(default=Kind.ARRAY, init=False)

    @property
    def is_array(self) -> bool:
        return True

    @property
    def size(self) -> int:
        if self.length is None:
            raise TypeError(f"sizeof incomplete array type {self.name()}")
        return self.element.size * self.length

    @property
    def align(self) -> int:
        return self.element.align

    def name(self) -> str:
        n = "" if self.length is None else str(self.length)
        return f"{self.element.name()} [{n}]"

    def decay(self) -> PointerType:
        """Array-to-pointer decay type.

        Built on first use and kept on the instance (outside the
        dataclass fields, so equality and hashing are unchanged): a
        scan over an array decays it once per element.
        """
        decayed = self.__dict__.get("_decayed")
        if decayed is None:
            decayed = self.__dict__["_decayed"] = PointerType(self.element)
        return decayed


@dataclass(frozen=True)
class Field:
    """One member of a struct or union.

    ``bit_offset``/``bit_width`` are set only for bit-field members; for
    ordinary members ``offset`` is the byte offset and the bit fields are
    ``None``.
    """

    name: str
    ctype: CType
    offset: int
    bit_offset: Optional[int] = None
    bit_width: Optional[int] = None

    @property
    def is_bitfield(self) -> bool:
        return self.bit_width is not None


class RecordType(CType):
    """Common behaviour of struct and union types.

    Records are nominal and completable: created with a tag, completed
    once with their field list (layout computed by
    :mod:`repro.ctype.layout`).
    """

    def __init__(self, tag: str | None):
        self.tag = tag
        self._fields: list[Field] = []
        self._size: Optional[int] = None
        self._align: Optional[int] = None

    @property
    def is_record(self) -> bool:
        return True

    @property
    def is_complete(self) -> bool:
        return self._size is not None

    def complete(self, fields: Sequence[Field], size: int, align: int) -> None:
        if self.is_complete:
            raise TypeError(f"redefinition of {self.name()}")
        self._fields = list(fields)
        self._size = size
        self._align = align

    @property
    def fields(self) -> list[Field]:
        if not self.is_complete:
            raise TypeError(f"use of incomplete type {self.name()}")
        return self._fields

    def field(self, name: str) -> Optional[Field]:
        """Look up a member by name, descending into anonymous members."""
        if not self.is_complete:
            raise TypeError(f"use of incomplete type {self.name()}")
        for f in self._fields:
            if f.name == name:
                return f
            if not f.name:  # anonymous struct/union member
                inner = f.ctype.strip_typedefs()
                if isinstance(inner, RecordType):
                    sub = inner.field(name)
                    if sub is not None:
                        return Field(
                            name=sub.name,
                            ctype=sub.ctype,
                            offset=f.offset + sub.offset,
                            bit_offset=sub.bit_offset,
                            bit_width=sub.bit_width,
                        )
        return None

    def field_names(self) -> list[str]:
        names: list[str] = []
        for f in self.fields:
            if f.name:
                names.append(f.name)
            else:
                inner = f.ctype.strip_typedefs()
                if isinstance(inner, RecordType):
                    names.extend(inner.field_names())
        return names

    @property
    def size(self) -> int:
        if self._size is None:
            raise TypeError(f"sizeof incomplete type {self.name()}")
        return self._size

    @property
    def align(self) -> int:
        if self._align is None:
            raise TypeError(f"alignof incomplete type {self.name()}")
        return self._align

    def name(self) -> str:
        keyword = "struct" if self.kind is Kind.STRUCT else "union"
        return f"{keyword} {self.tag}" if self.tag else f"{keyword} <anonymous>"

    def __repr__(self) -> str:
        state = "complete" if self.is_complete else "incomplete"
        return f"<{type(self).__name__} {self.name()!r} {state}>"


class StructType(RecordType):
    kind = Kind.STRUCT


class UnionType(RecordType):
    kind = Kind.UNION


class EnumType(CType):
    """An enum: nominal, with named integer constants, int-sized."""

    kind = Kind.ENUM

    def __init__(self, tag: str | None, enumerators: Iterable[tuple[str, int]] = ()):
        self.tag = tag
        self.enumerators: dict[str, int] = dict(enumerators)

    @property
    def is_integer(self) -> bool:
        return True

    @property
    def signed(self) -> bool:
        return True

    @property
    def rank(self) -> int:
        return PRIMITIVES[Kind.INT].rank

    @property
    def size(self) -> int:
        return PRIMITIVES[Kind.INT].size

    @property
    def align(self) -> int:
        return PRIMITIVES[Kind.INT].align

    def name(self) -> str:
        return f"enum {self.tag}" if self.tag else "enum <anonymous>"

    def name_of(self, value: int) -> Optional[str]:
        """Reverse lookup: the first enumerator with this value, if any."""
        for enum_name, enum_value in self.enumerators.items():
            if enum_value == value:
                return enum_name
        return None


@dataclass(frozen=True)
class FunctionType(CType):
    """Function type: return type + parameter types (+ varargs flag)."""

    result: CType
    params: tuple[CType, ...] = ()
    varargs: bool = False
    kind: Kind = field(default=Kind.FUNCTION, init=False)

    @property
    def is_function(self) -> bool:
        return True

    @property
    def size(self) -> int:
        raise TypeError("sizeof function type")

    @property
    def align(self) -> int:
        raise TypeError("alignof function type")

    def name(self) -> str:
        params = ", ".join(p.name() for p in self.params) or "void"
        if self.varargs:
            params += ", ..."
        return f"{self.result.name()} ({params})"


class TypedefType(CType):
    """A named alias for another type."""

    kind = Kind.TYPEDEF

    def __init__(self, alias: str, target: CType):
        self.alias = alias
        self.target = target

    def strip_typedefs(self) -> CType:
        return self.target.strip_typedefs()

    def __getattr__(self, item):  # delegate classification/layout queries
        if item.startswith("__"):     # unpickling, before ``target`` is set
            raise AttributeError(item)
        return getattr(self.target, item)

    @property
    def is_integer(self) -> bool:
        return self.target.is_integer

    @property
    def is_float(self) -> bool:
        return self.target.is_float

    @property
    def is_pointer(self) -> bool:
        return self.target.is_pointer

    @property
    def is_array(self) -> bool:
        return self.target.is_array

    @property
    def is_record(self) -> bool:
        return self.target.is_record

    @property
    def is_function(self) -> bool:
        return self.target.is_function

    @property
    def is_void(self) -> bool:
        return self.target.is_void

    @property
    def size(self) -> int:
        return self.target.size

    @property
    def align(self) -> int:
        return self.target.align

    def name(self) -> str:
        return self.alias

    def __repr__(self) -> str:
        return f"<TypedefType {self.alias!r} -> {self.target.name()!r}>"


@dataclass(frozen=True)
class BitFieldType(CType):
    """The type of a loaded bit-field value: base integer + width."""

    base: CType
    width: int
    kind: Kind = field(default=Kind.BITFIELD, init=False)

    @property
    def is_integer(self) -> bool:
        return True

    @property
    def signed(self) -> bool:
        return getattr(self.base.strip_typedefs(), "signed", True)

    @property
    def rank(self) -> int:
        return getattr(self.base.strip_typedefs(), "rank", PRIMITIVES[Kind.INT].rank)

    @property
    def size(self) -> int:
        return self.base.size

    @property
    def align(self) -> int:
        return self.base.align

    def name(self) -> str:
        return f"{self.base.name()} : {self.width}"


def pointer_to(target: CType) -> PointerType:
    """Convenience constructor for pointer types."""
    return PointerType(target)


def array_of(element: CType, length: Optional[int]) -> ArrayType:
    """Convenience constructor for array types."""
    return ArrayType(element, length)


#: char *, used pervasively (strings).
CHAR_P = PointerType(CHAR)
#: void *, the generic object pointer.
VOID_P = PointerType(VOID)

assert BYTE_ORDER == "little"
