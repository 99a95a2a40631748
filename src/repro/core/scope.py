"""Name resolution: the ``fetch`` of the paper's pseudo-code.

A name in a DUEL expression can resolve, in order, to:

1. a field of a value on the *with* stack (``e1.e2`` / ``e1->e2`` /
   ``-->`` push their operand; innermost entry searched first);
2. the special name ``_`` — the with operand itself;
3. a debugger alias (``x := e``, ``e#n`` indices, ``int i;``
   declarations);
4. a target variable (innermost frame, then globals — the backend
   resolves the frame chain);
5. an enumeration constant.

The with stack is the ``push``/``pop`` pair in the paper's WITH and DFS
semantics; aliases are the paper's ``alias()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.ctype.types import RecordType
from repro.core.errors import DuelNameError
from repro.core.symbolic import Sym, SymField, SymText, extend_chain
from repro.core.values import DuelValue, lvalue, rvalue


@dataclass
class WithEntry:
    """One pushed scope: the operand value and how to spell its fields."""

    value: DuelValue
    #: True when entered via ``->`` (fields print with ``->``).
    arrow: bool
    #: True when entered by a ``-->`` expansion (fields extend chains).
    chain: bool = False
    #: What ``_`` denotes: for ``e1->e2`` the *pointer* e1, not the
    #: dereferenced record (the paper's ``hash[..1024]->(if (_ && ...))``
    #: tests the pointer).  None means ``value`` itself.
    underscore: Optional[DuelValue] = None

    @property
    def underscore_value(self) -> DuelValue:
        return self.underscore if self.underscore is not None else self.value


class Scope:
    """The name-resolution state for one evaluation context."""

    def __init__(self, backend):
        self.backend = backend
        self._with_stack: list[WithEntry] = []
        self._aliases: dict[str, DuelValue] = {}
        #: Count of symbol lookups performed (benchmark P2 reads this).
        self.lookup_count = 0
        #: Count of alias bindings (a durable server journals on a move).
        self.binds = 0

    # -- with stack -------------------------------------------------------
    def push(self, entry: WithEntry) -> None:
        self._with_stack.append(entry)

    def pop(self) -> WithEntry:
        return self._with_stack.pop()

    @property
    def with_depth(self) -> int:
        return len(self._with_stack)

    def current_with(self) -> Optional[WithEntry]:
        return self._with_stack[-1] if self._with_stack else None

    # -- aliases ------------------------------------------------------------
    def alias(self, name: str, value: DuelValue) -> None:
        """Bind a debugger alias (paper's ``alias(n->name, u)``)."""
        self._aliases[name] = value
        self.binds += 1

    def unalias(self, name: str) -> None:
        self._aliases.pop(name, None)

    def clear_aliases(self) -> None:
        self._aliases.clear()

    def aliases(self) -> dict[str, DuelValue]:
        return dict(self._aliases)

    # -- fetch ------------------------------------------------------------
    def fetch(self, name: str) -> DuelValue:
        """Resolve ``name`` to a value (the paper's ``fetch``)."""
        self.lookup_count += 1
        if name == "_":
            entry = self.current_with()
            if entry is None:
                raise DuelNameError("_")
            return entry.underscore_value
        hit = self.fetch_with_field(name)
        if hit is not None:
            return hit
        alias = self._aliases.get(name)
        if alias is not None:
            return alias.with_sym(SymText(name))
        symbol = self.backend.get_target_variable(name)
        if symbol is not None:
            if symbol.ctype.is_function:
                return DuelValue(ctype=symbol.ctype, sym=SymText(name),
                                 value=symbol.address, func_name=name)
            return lvalue(symbol.ctype, symbol.address, SymText(name))
        constant = self.backend.enum_constant(name)
        if constant is not None:
            value, ctype = constant
            return rvalue(ctype, value, SymText(name))
        raise DuelNameError(name)

    def fetch_with_field(self, name: str) -> Optional[DuelValue]:
        """Search the with stack, innermost first, for a field ``name``."""
        for entry in reversed(self._with_stack):
            # frame(i) pseudo-values resolve names in that stack frame.
            frame = getattr(entry.value, "frame_index", None)
            if frame is not None:
                symbol = self.backend.get_frame_variable(frame, name)
                if symbol is not None:
                    return lvalue(symbol.ctype, symbol.address, SymText(name))
                continue
            record = entry.value.ctype.strip_typedefs()
            if not isinstance(record, RecordType) or not record.is_complete:
                continue
            field = record.field(name)
            if field is None:
                continue
            if not entry.value.is_lvalue:
                continue
            sym = self._field_sym(entry, name)
            return DuelValue(
                ctype=field.ctype, sym=sym,
                address=entry.value.address + field.offset,
                bit_offset=field.bit_offset, bit_width=field.bit_width)
        return None

    def _field_sym(self, entry: WithEntry, name: str) -> Sym:
        if entry.chain:
            return extend_chain(entry.value.sym, name)
        return SymField(entry.value.sym, name, arrow=entry.arrow)

    def is_alias(self, name: str) -> bool:
        return name in self._aliases
