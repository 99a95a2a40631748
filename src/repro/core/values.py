"""DUEL values.

"The 'values' produced during evaluation have a type, an actual value,
and a symbolic value.  The actual value is a value of a primitive C
type or an lvalue, which is a pointer to target data." (paper
§Implementation)

:class:`DuelValue` encapsulates exactly that triple.  Lvalues carry a
target address (plus bit-field coordinates when needed); rvalues carry
a Python number.  Loading an lvalue's current contents goes through the
narrow debugger interface.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.ctype.encode import (
    decode_value, encode_value, extract_bitfield, insert_bitfield, int_layout)
from repro.ctype.kinds import BYTE_ORDER
from repro.ctype.types import (
    ArrayType,
    BitFieldType,
    CType,
    INT,
    RecordType,
)
from repro.core.errors import DuelMemoryError, DuelTypeError
from repro.core.symbolic import Sym, SymText


@dataclass(slots=True)
class DuelValue:
    """One value flowing through the evaluator: type + actual + symbolic."""

    ctype: CType
    sym: Sym
    #: For rvalues: the Python number (int/float) or None for void.
    value: Optional[object] = None
    #: For lvalues: the target address this value designates.
    address: Optional[int] = None
    #: Bit-field coordinates within the addressed unit, if any.
    bit_offset: Optional[int] = None
    bit_width: Optional[int] = None
    #: For function designators: the symbol name (call by name).
    func_name: Optional[str] = None

    @property
    def is_lvalue(self) -> bool:
        return self.address is not None

    @property
    def is_bitfield(self) -> bool:
        return self.bit_width is not None

    def with_sym(self, sym: Sym) -> "DuelValue":
        """The same value under a different symbolic expression."""
        return replace(self, sym=sym)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        loc = (f"@{self.address:#x}" if self.is_lvalue
               else f"={self.value!r}")
        return f"<DuelValue {self.sym.render()} : {self.ctype} {loc}>"


def rvalue(ctype: CType, value, sym: Sym) -> DuelValue:
    """Construct a plain rvalue."""
    return DuelValue(ctype, sym, value)


def lvalue(ctype: CType, address: int, sym: Sym) -> DuelValue:
    """Construct an lvalue designating target storage."""
    return DuelValue(ctype, sym, None, address)


def int_value(value: int, sym: Optional[Sym] = None,
              ctype: CType = INT) -> DuelValue:
    """An int rvalue whose symbolic defaults to its decimal spelling."""
    return rvalue(ctype, value, sym if sym is not None else SymText(str(value)))


class ValueOps:
    """Load/store operations binding DuelValues to a debugger backend.

    Kept separate from :class:`DuelValue` so values stay inert data and
    the single point of target access is explicit (and mockable).
    """

    def __init__(self, backend):
        self.backend = backend
        #: ctype -> its :func:`~repro.ctype.encode.int_layout` (None: the
        #: generic codec), looked up the first time a value of it loads.
        self._layouts: dict = {}

    # -- loading ---------------------------------------------------------
    def load(self, v: DuelValue) -> object:
        """The current contents of ``v`` (reads the target for lvalues)."""
        if v.address is None:
            return v.value
        layout = self._layout(v)
        if layout is not None:
            return self._load_int(v, layout)
        stripped = v.ctype.strip_typedefs()
        if isinstance(stripped, ArrayType):
            # Arrays decay: the "value" of an array lvalue is its address.
            return v.address
        if isinstance(stripped, RecordType):
            # A record's contents is its storage; callers use the address.
            return v.address
        if v.is_bitfield:
            unit_type = stripped.base if isinstance(stripped, BitFieldType) else stripped
            raw = self._read(v, v.address, unit_type.size)
            unit = int.from_bytes(raw, "little", signed=False)
            signed = getattr(unit_type.strip_typedefs(), "signed", True)
            return extract_bitfield(unit, v.bit_offset or 0, v.bit_width, signed)
        raw = self._read(v, v.address, stripped.size)
        return decode_value(raw, stripped)

    def load_value(self, v: DuelValue) -> DuelValue:
        """An rvalue copy of ``v`` with contents loaded (arrays decay)."""
        if v.address is None:
            return v
        layout = self._layout(v)
        if layout is not None:
            return DuelValue(v.ctype, v.sym, self._load_int(v, layout))
        stripped = v.ctype.strip_typedefs()
        if isinstance(stripped, ArrayType):
            return DuelValue(stripped.decay(), v.sym, v.address)
        if isinstance(stripped, RecordType):
            return v  # records stay addressed; ops treat them specially
        loaded = self.load(v)
        ctype = v.ctype
        if isinstance(stripped, BitFieldType):
            ctype = stripped.base
        return rvalue(ctype, loaded, v.sym)

    def _layout(self, v: DuelValue):
        """``v``'s integer load layout, or None for the generic codec."""
        if v.bit_width is not None:
            return None
        try:
            return self._layouts[v.ctype]
        except KeyError:
            layout = self._layouts[v.ctype] = int_layout(v.ctype)
            return layout

    def _load_int(self, v: DuelValue, layout) -> int:
        size, signed = layout
        raw = self._read(v, v.address, size)
        if len(raw) != size:  # a short read: the codec reports it
            return decode_value(raw, v.ctype)
        return int.from_bytes(raw, BYTE_ORDER, signed=signed)

    # -- storing -----------------------------------------------------------
    def store(self, dest: DuelValue, value) -> None:
        """Store a raw Python number into lvalue ``dest``."""
        if not dest.is_lvalue:
            raise DuelTypeError("assignment to non-lvalue",
                                dest.sym.render())
        stripped = dest.ctype.strip_typedefs()
        if dest.is_bitfield:
            unit_type = (stripped.base if isinstance(stripped, BitFieldType)
                         else stripped)
            raw = self._read(dest, dest.address, unit_type.size)
            unit = int.from_bytes(raw, "little", signed=False)
            unit = insert_bitfield(unit, dest.bit_offset or 0,
                                   dest.bit_width, int(value))
            data = unit.to_bytes(unit_type.size, "little", signed=False)
            self._write(dest, dest.address, data)
            return
        if isinstance(stripped, RecordType):
            # Struct assignment: byte copy from another record lvalue.
            src = value
            if not (isinstance(src, DuelValue) and src.is_lvalue):
                raise DuelTypeError("struct assignment needs a struct lvalue",
                                    dest.sym.render())
            data = self._read(src, src.address, stripped.size)
            self._write(dest, dest.address, data)
            return
        self._write(dest, dest.address, encode_value(value, stripped))

    # -- raw access with paper-style error reporting ------------------------
    def _read(self, v: DuelValue, address: int, size: int) -> bytes:
        try:
            return self.backend.get_target_bytes(address, size)
        except RecursionError:
            # A query too deep for the Python stack, which may run out
            # during any read: the session reports that, not the
            # address.
            raise
        except Exception:
            raise DuelMemoryError(
                "x", "x", v.sym.render(), f"lvalue {address:#x}") from None

    def _write(self, v: DuelValue, address: int, data: bytes) -> None:
        try:
            self.backend.put_target_bytes(address, data)
        except RecursionError:
            raise
        except Exception:
            raise DuelMemoryError(
                "x", "x=y", v.sym.render(), f"lvalue {address:#x}") from None

    # -- truthiness ----------------------------------------------------------
    def truthy(self, v: DuelValue) -> bool:
        """C truth value of ``v`` (loads lvalues)."""
        stripped = v.ctype.strip_typedefs()
        if isinstance(stripped, RecordType):
            raise DuelTypeError(
                f"record value used in boolean context", v.sym.render())
        loaded = self.load(v)
        if loaded is None:
            raise DuelTypeError("void value used in boolean context",
                                v.sym.render())
        return bool(loaded)


def describe_location(v: DuelValue) -> str:
    """Short location descriptor used in diagnostics."""
    if v.is_lvalue:
        return f"lvalue {v.address:#x}"
    return f"value {v.value!r}"


__all__ = [
    "DuelValue",
    "ValueOps",
    "rvalue",
    "lvalue",
    "int_value",
    "describe_location",
]
