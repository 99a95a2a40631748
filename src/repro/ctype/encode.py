"""Byte-level codecs: Python values <-> target memory bytes.

All scalar loads and stores in the simulated debugger funnel through
:func:`encode_value` and :func:`decode_value`, so endianness and width
rules live in exactly one place.
"""

from __future__ import annotations

import struct

from repro.ctype.kinds import BYTE_ORDER, Kind, PRIMITIVES, wrap_int
from repro.ctype.types import (
    BitFieldType,
    CType,
    EnumType,
    PointerType,
    PrimitiveType,
)


class EncodeError(TypeError):
    """Raised when a value cannot be encoded/decoded for a type."""


_FLOAT_FORMATS = {4: "<f", 8: "<d"}


def encode_value(value, ctype: CType) -> bytes:
    """Encode a Python number as the in-memory bytes of ``ctype``."""
    t = ctype.strip_typedefs()
    if isinstance(t, PointerType):
        return int(value).to_bytes(t.size, BYTE_ORDER, signed=False)
    if isinstance(t, EnumType):
        return wrap_int(int(value), Kind.INT).to_bytes(
            t.size, BYTE_ORDER, signed=True)
    if isinstance(t, BitFieldType):
        # Bit-fields are stored via read-modify-write of the allocation
        # unit; callers encode the unit with the base type.
        raise EncodeError("bit-field values are encoded via their base unit")
    if not isinstance(t, PrimitiveType):
        raise EncodeError(f"cannot encode scalar into {ctype}")
    info = PRIMITIVES[t.kind]
    if t.kind is Kind.VOID:
        raise EncodeError("cannot encode a void value")
    if info.is_float:
        fmt = _FLOAT_FORMATS.get(info.size)
        if fmt is None:  # long double slot: store a double + padding
            return struct.pack("<d", float(value)).ljust(info.size, b"\0")
        return struct.pack(fmt, float(value))
    if t.kind is Kind.BOOL:
        return (b"\x01" if value else b"\x00")
    wrapped = wrap_int(int(value), t.kind)
    return wrapped.to_bytes(info.size, BYTE_ORDER, signed=info.signed)


def int_layout(ctype: CType):
    """``(size, signed)`` when ``ctype``'s bytes decode as one integer
    in :data:`BYTE_ORDER` — pointers unsigned, enums signed, the
    integer kinds but ``_Bool`` (normalised to 0/1) by their
    signedness — else None."""
    t = ctype.strip_typedefs()
    if isinstance(t, PointerType):
        return t.size, False
    if isinstance(t, EnumType):
        return t.size, True
    if (isinstance(t, PrimitiveType) and t.is_integer
            and t.kind is not Kind.BOOL):
        return t.size, t.signed
    return None


def decode_value(data: bytes, ctype: CType):
    """Decode target bytes into a Python number for ``ctype``."""
    layout = int_layout(ctype)
    if layout is not None:
        size, signed = layout
        _require(data, size, ctype)
        return int.from_bytes(data[:size], BYTE_ORDER, signed=signed)
    t = ctype.strip_typedefs()
    if not isinstance(t, PrimitiveType):
        raise EncodeError(f"cannot decode scalar from {ctype}")
    info = PRIMITIVES[t.kind]
    if t.kind is Kind.VOID:
        raise EncodeError("cannot decode a void value")
    _require(data, info.size, ctype)
    if info.is_float:
        fmt = _FLOAT_FORMATS.get(info.size)
        if fmt is None:
            return struct.unpack("<d", data[:8])[0]
        return struct.unpack(fmt, data[:info.size])[0]
    return 1 if data[0] else 0  # _Bool


def extract_bitfield(unit: int, bit_offset: int, width: int, signed: bool) -> int:
    """Extract a bit-field value from its loaded allocation unit.

    Little-endian bit-field convention: bit 0 of the unit is the least
    significant bit.
    """
    value = (unit >> bit_offset) & ((1 << width) - 1)
    if signed and width > 0 and value >= 1 << (width - 1):
        value -= 1 << width
    return value


def insert_bitfield(unit: int, bit_offset: int, width: int, value: int) -> int:
    """Insert a bit-field value into its allocation unit, returning the unit."""
    mask = ((1 << width) - 1) << bit_offset
    return (unit & ~mask) | ((value << bit_offset) & mask)


def _require(data: bytes, size: int, ctype: CType) -> None:
    if len(data) < size:
        raise EncodeError(
            f"short read: {len(data)} bytes for {ctype} (need {size})")
