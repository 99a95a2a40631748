"""gdb-style value formatting for DUEL output lines.

The paper shows values printed the way gdb prints them: ints in
decimal, ``char *`` as the string it points to (``hash[1]->name =
"x"``), pointers in hex, doubles like ``2.500``.  The formatter takes
the debugger backend so it can chase ``char *`` values into target
memory.
"""

from __future__ import annotations

from typing import Optional

from repro.ctype.types import (
    ArrayType,
    CType,
    EnumType,
    Kind,
    PointerType,
    PrimitiveType,
    RecordType,
)
from repro.core.values import DuelValue, ValueOps

#: Longest string chased through a char * before truncating with "...".
MAX_STRING = 200
#: Most record fields / array elements printed before eliding.
MAX_AGGREGATE = 24

_ESCAPES = {
    0: "\\000", 7: "\\a", 8: "\\b", 9: "\\t", 10: "\\n",
    11: "\\v", 12: "\\f", 13: "\\r", 34: '\\"', 92: "\\\\",
}


def escape_char(code: int, quote: str = "'") -> str:
    """C source spelling of one character code."""
    if code == ord(quote):
        return "\\" + quote
    if code in _ESCAPES and chr(code) != quote:
        return _ESCAPES[code]
    if 32 <= code < 127:
        return chr(code)
    return f"\\{code:03o}"


#: Each byte's spelling inside a double-quoted string.
_STRING_CHARS = tuple(escape_char(code, quote='"') for code in range(256))


class ValueFormatter:
    """Formats DuelValues for display."""

    def __init__(self, ops: ValueOps, float_format: str = "%g",
                 chase_strings: bool = True):
        self.ops = ops
        self.float_format = float_format
        self.chase_strings = chase_strings

    def format(self, v: DuelValue) -> str:
        """The display text for one produced value."""
        return self.format_typed(v, v.ctype)

    def format_typed(self, v: DuelValue, ctype: CType) -> str:
        stripped = ctype.strip_typedefs()
        if isinstance(stripped, RecordType):
            return self._format_record(v, stripped)
        if isinstance(stripped, ArrayType):
            return self._format_array(v, stripped)
        loaded = self.ops.load(v)
        return self.format_raw(loaded, stripped)

    # -- scalars ------------------------------------------------------------
    def format_raw(self, loaded, stripped: CType) -> str:
        """Format an already-loaded raw value of a scalar type."""
        if loaded is None:
            return "void"
        if isinstance(stripped, PointerType):
            return self._format_pointer(int(loaded), stripped)
        if isinstance(stripped, EnumType):
            name = stripped.name_of(int(loaded))
            if name is not None:
                return name
            return str(int(loaded))
        if isinstance(stripped, PrimitiveType):
            if stripped.is_float:
                return self.float_format % float(loaded)
            if stripped.kind in (Kind.CHAR, Kind.SCHAR, Kind.UCHAR):
                code = int(loaded) & 0xFF
                return f"{int(loaded)} '{escape_char(code)}'"
            return str(int(loaded))
        return str(loaded)

    def _format_pointer(self, address: int, ptype: PointerType) -> str:
        target = ptype.target.strip_typedefs()
        is_char = (isinstance(target, PrimitiveType)
                   and target.kind in (Kind.CHAR, Kind.SCHAR, Kind.UCHAR))
        if is_char and self.chase_strings and address != 0:
            chased = self._chase_string(address)
            if chased is not None:
                return chased
        return f"{address:#x}"

    def _chase_string(self, address: int) -> Optional[str]:
        """The C string at ``address``, quoted, ``"..."...`` past
        :data:`MAX_STRING` characters; None when a byte before its NUL
        is unmapped (the caller prints the pointer)."""
        get = self.ops.backend.get_target_bytes
        try:
            data = get(address, MAX_STRING)
        except Exception:
            # The block runs past mapped memory: read up to the NUL
            # byte by byte, which faults only where a character does.
            data = bytearray()
            for offset in range(MAX_STRING):
                try:
                    data += get(address + offset, 1)
                except Exception:
                    return None
                if data[-1] == 0:
                    break
        end = data.find(0)
        chars = "".join([_STRING_CHARS[code]
                         for code in data[:end if end >= 0 else MAX_STRING]])
        return '"' + chars + ('"' if end >= 0 else '"...')

    # -- aggregates -----------------------------------------------------------
    def _format_record(self, v: DuelValue, record: RecordType) -> str:
        if not v.is_lvalue:
            return f"<{record.name()}>"
        parts = []
        for f in record.fields[:MAX_AGGREGATE]:
            if not f.name:
                continue
            member = DuelValue(
                ctype=f.ctype, sym=v.sym,
                address=v.address + f.offset,
                bit_offset=f.bit_offset, bit_width=f.bit_width)
            parts.append(f"{f.name} = {self.format(member)}")
        suffix = ", ..." if len(record.fields) > MAX_AGGREGATE else ""
        return "{" + ", ".join(parts) + suffix + "}"

    def _format_array(self, v: DuelValue, arr: ArrayType) -> str:
        element = arr.element.strip_typedefs()
        is_char = (isinstance(element, PrimitiveType)
                   and element.kind in (Kind.CHAR, Kind.SCHAR, Kind.UCHAR))
        if v.is_lvalue and is_char and arr.length:
            text = self._chase_string(v.address)
            if text is not None:
                return text
        if not v.is_lvalue or arr.length is None:
            return f"<{arr.name()}>"
        parts = []
        count = min(arr.length, MAX_AGGREGATE)
        for index in range(count):
            member = DuelValue(
                ctype=arr.element, sym=v.sym,
                address=v.address + index * arr.element.size)
            parts.append(self.format(member))
        suffix = ", ..." if arr.length > MAX_AGGREGATE else ""
        return "{" + ", ".join(parts) + suffix + "}"
