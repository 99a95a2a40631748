"""The simulated inferior process.

A :class:`TargetProgram` is a complete debuggee: segmented guarded
memory (text/data/heap/stack), a C type environment, global and
per-frame symbol tables, a bump-allocating heap with live-byte
accounting, interned string literals, and callable target functions.
Globals are laid out contiguously in definition order — exactly like a
real C implementation, so out-of-bounds writes clobber the *adjacent*
object, which several examples rely on.

The segment bases are chosen so that the paper's poison addresses
(0x16820, 0xDEAD, 0xDEAD0000, 0xBAD00000, 0x99999999) all fall in
unmapped holes and report ``Illegal memory reference`` faithfully.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from repro.ctype.declparse import DeclParser, TypeEnv, parse_type
from repro.ctype.encode import decode_value, encode_value
from repro.ctype.kinds import POINTER_SIZE
from repro.ctype.layout import align_up
from repro.ctype.types import CHAR, CType, FunctionType, PointerType
from repro.target.memory import Memory, TargetMemoryFault
from repro.target.symbols import Symbol, SymbolKind, SymbolTable

#: Segment map (LP64 flat layout).  Address 0 is never mapped.
TEXT_BASE = 0x400
TEXT_SIZE = 0x4000
DATA_BASE = 0x100000
DATA_SIZE = 0x400000
HEAP_BASE = 0x20000000
HEAP_SIZE = 0x2000000
STACK_BASE = 0x70000000
STACK_SIZE = 0x200000

#: Byte stride between function entry points in the text segment.
FUNCTION_STRIDE = 16


class Heap:
    """Bump allocator over the heap segment, with live-byte accounting."""

    def __init__(self, memory: Memory, base: int, size: int):
        self._memory = memory
        self._base = base
        self._limit = base + size
        self._next = base
        self._blocks: dict[int, int] = {}
        #: Bytes currently allocated (malloc'd minus freed) — the
        #: debugger-visible leak counter.
        self.bytes_allocated = 0

    def alloc(self, size: int) -> int:
        """Allocate ``size`` zeroed bytes; returns the block address."""
        size = int(size)
        if size < 0:
            raise TargetMemoryFault(0, size, "alloc",
                                    "negative allocation size")
        size = max(size, 1)
        address = align_up(self._next, 16)
        if address + size > self._limit:
            raise TargetMemoryFault(address, size, "alloc",
                                    "heap segment exhausted")
        self._next = address + size
        self._blocks[address] = size
        self.bytes_allocated += size
        self._memory.write(address, bytes(size))
        return address

    def free(self, address: int) -> None:
        """Release a block; free(NULL) is a no-op, bad pointers fault."""
        if address == 0:
            return
        size = self._blocks.pop(address, None)
        if size is None:
            raise TargetMemoryFault(address, 0, "free",
                                    "not an allocated block address")
        self.bytes_allocated -= size

    def copy_state(self) -> tuple:
        return (self._next, dict(self._blocks), self.bytes_allocated)

    def restore_state(self, state: tuple) -> None:
        self._next, blocks, self.bytes_allocated = state
        self._blocks = dict(blocks)


class Frame:
    """One simulated stack frame: a function name plus its locals."""

    def __init__(self, function: str, stack: "Stack", base: int):
        self.function = function
        self.symbols = SymbolTable()
        self._stack = stack
        self._base = base

    def declare(self, name: str, ctype: CType,
                kind: SymbolKind = SymbolKind.LOCAL) -> Symbol:
        """Allocate zeroed frame space for a local/parameter."""
        address = self._stack.allocate(ctype)
        return self.symbols.define(Symbol(name, ctype, address, kind))

    def lookup(self, name: str) -> Optional[Symbol]:
        return self.symbols.lookup(name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Frame({self.function!r}, {len(self.symbols)} symbols)"


class Stack:
    """The simulated call stack: frames carving space out of one segment."""

    def __init__(self, memory: Memory, base: int, size: int):
        self._memory = memory
        self._base = base
        self._limit = base + size
        self._next = base
        self._frames: list[Frame] = []

    def push(self, function: str) -> Frame:
        frame = Frame(function, self, self._next)
        self._frames.append(frame)
        return frame

    def pop(self) -> Frame:
        if not self._frames:
            raise TargetMemoryFault(0, 0, "pop", "the stack has no frames")
        frame = self._frames.pop()
        self._next = frame._base
        return frame

    def allocate(self, ctype: CType) -> int:
        size = max(ctype.size, 1)
        align = max(getattr(ctype, "align", 1), 1)
        address = align_up(self._next, align)
        if address + size > self._limit:
            raise TargetMemoryFault(address, size, "alloc",
                                    "stack segment exhausted (overflow)")
        self._next = address + size
        self._memory.write(address, bytes(size))
        return address

    @property
    def depth(self) -> int:
        return len(self._frames)

    @property
    def innermost(self) -> Optional[Frame]:
        return self._frames[-1] if self._frames else None

    def frame(self, index: int) -> Frame:
        """Frame by debugger convention: 0 is the innermost frame."""
        if not 0 <= index < len(self._frames):
            raise IndexError(f"no frame {index} (depth {len(self._frames)})")
        return self._frames[-1 - index]

    def copy_state(self) -> tuple:
        frames = [(f.function, f._base, f.symbols.copy_state())
                  for f in self._frames]
        return (self._next, frames)

    def restore_state(self, state: tuple) -> None:
        self._next, frames = state
        self._frames = []
        for function, base, symbols in frames:
            frame = Frame(function, self, base)
            frame.symbols.restore_state(symbols)
            self._frames.append(frame)


class TargetRuntimeError(Exception):
    """Target code failed while running (a runaway loop, a bad call).

    Whatever executes target function bodies raises a subclass, so the
    debugger boundary can treat it as a target fault without knowing
    which interpreter ran the code.
    """


@dataclass
class TargetFunction:
    """A callable installed in the target's text segment."""

    symbol: Symbol
    impl: Optional[Callable]


class TargetProgram:
    """A complete simulated debuggee (see module docstring)."""

    def __init__(self) -> None:
        self.types = TypeEnv()
        self.memory = Memory()
        self.memory.map_new("text", TEXT_BASE, TEXT_SIZE)
        self.memory.map_new("data", DATA_BASE, DATA_SIZE)
        self.memory.map_new("heap", HEAP_BASE, HEAP_SIZE)
        self.memory.map_new("stack", STACK_BASE, STACK_SIZE)
        self.heap = Heap(self.memory, HEAP_BASE, HEAP_SIZE)
        self.stack = Stack(self.memory, STACK_BASE, STACK_SIZE)
        self.globals = SymbolTable()
        self.functions: dict[str, TargetFunction] = {}
        self._functions_by_address: dict[int, TargetFunction] = {}
        #: Everything the target printf'd, in order.
        self.output: list[str] = []
        self._interned: dict[bytes, int] = {}
        self._data_next = DATA_BASE
        self._text_next = TEXT_BASE
        #: The checkpoint of the query whose target call is running,
        #: polled by whatever executes function bodies (None: nothing
        #: to poll).  The debugger boundary sets it for one call at a
        #: time (:class:`~repro.target.interface.GovernedBackend`), so
        #: a deadline or a ^C stops a runaway call.
        self.checkpoint: Optional[Callable[[], None]] = None

    # -- defining globals --------------------------------------------------
    def define(self, name: str, ctype: CType) -> Symbol:
        """Place a zeroed global at the next data address (in order)."""
        if ctype.is_function:
            return self._function_symbol(name, ctype)
        size = max(ctype.size, 1)
        align = max(getattr(ctype.strip_typedefs(), "align", 1), 1)
        address = align_up(self._data_next, align)
        if address + size > DATA_BASE + DATA_SIZE:
            raise TargetMemoryFault(address, size, "alloc",
                                    "data segment exhausted")
        self._data_next = address + size
        self.memory.write(address, bytes(size))
        return self.globals.define(
            Symbol(name, ctype, address, SymbolKind.GLOBAL))

    def declare(self, text: str) -> list[Symbol]:
        """Parse C declaration syntax and define each declared global."""
        symbols = []
        for decl in DeclParser(self.types).parse(text):
            if decl.is_typedef:
                continue
            symbols.append(self.define(decl.name, decl.ctype))
        return symbols

    def parse_type(self, text: str) -> CType:
        """Parse a C type name against this program's type environment."""
        return parse_type(text, self.types)

    # -- functions ---------------------------------------------------------
    def _function_symbol(self, name: str, ctype: CType) -> Symbol:
        existing = self.functions.get(name)
        if existing is not None:
            # Redefinition (e.g. a prototype then the definition, or a
            # stdlib function overridden): keep the entry address.
            symbol = Symbol(name, ctype, existing.symbol.address,
                            SymbolKind.FUNCTION)
            existing.symbol = symbol
            return symbol
        address = self._text_next
        if address + FUNCTION_STRIDE > TEXT_BASE + TEXT_SIZE:
            raise TargetMemoryFault(address, FUNCTION_STRIDE, "alloc",
                                    "text segment exhausted")
        self._text_next = address + FUNCTION_STRIDE
        symbol = Symbol(name, ctype, address, SymbolKind.FUNCTION)
        entry = TargetFunction(symbol, None)
        self.functions[name] = entry
        self._functions_by_address[address] = entry
        return symbol

    def define_function(self, name: str, ctype: Union[CType, str],
                        impl: Callable) -> Symbol:
        """Install a callable target function.

        ``ctype`` may be a :class:`FunctionType` or C prototype text
        ("unsigned long strlen(char *)").  ``impl`` is called as
        ``impl(program, *raw_args)``; redefining a name keeps its text
        address (so function pointers taken earlier stay valid).
        """
        if isinstance(ctype, str):
            text = ctype if ctype.rstrip().endswith(";") else ctype + ";"
            decls = DeclParser(self.types).parse(text)
            if len(decls) != 1 or not decls[0].ctype.is_function:
                raise TargetMemoryFault(
                    0, 0, "call", f"not a function prototype: {ctype!r}")
            ctype = decls[0].ctype
        symbol = self._function_symbol(name, ctype)
        self.functions[name].impl = impl
        return symbol

    def call(self, target: Union[str, int], raw_args: Sequence = ()):
        """Call a target function by name or entry address."""
        if isinstance(target, str):
            entry = self.functions.get(target)
            if entry is None:
                raise TargetMemoryFault(
                    0, 0, "call", f"no function named {target!r}")
        else:
            entry = self._functions_by_address.get(int(target))
            if entry is None:
                raise TargetMemoryFault(
                    int(target), 0, "call",
                    "address is not a function entry point")
        if entry.impl is None:
            raise TargetMemoryFault(
                entry.symbol.address, 0, "call",
                f"function {entry.symbol.name!r} has no body")
        return entry.impl(self, *raw_args)

    # -- lookup ------------------------------------------------------------
    def lookup(self, name: str) -> Optional[Symbol]:
        """Resolve a name: innermost frame, then globals, then functions."""
        frame = self.stack.innermost
        if frame is not None:
            symbol = frame.symbols.lookup(name)
            if symbol is not None:
                return symbol
        symbol = self.globals.lookup(name)
        if symbol is not None:
            return symbol
        entry = self.functions.get(name)
        return entry.symbol if entry is not None else None

    # -- typed access ------------------------------------------------------
    def read_value(self, address: int, ctype: CType):
        """Aligned, typed read: decode a value of ``ctype`` at ``address``."""
        stripped = ctype.strip_typedefs()
        self._check_aligned(address, stripped, "read")
        return decode_value(self.memory.read(address, stripped.size), ctype)

    def write_value(self, address: int, ctype: CType, value) -> None:
        """Aligned, typed write: encode ``value`` as ``ctype`` at ``address``."""
        stripped = ctype.strip_typedefs()
        self._check_aligned(address, stripped, "write")
        self.memory.write(address, encode_value(value, ctype))

    def _check_aligned(self, address: int, ctype: CType,
                       operation: str) -> None:
        align = max(getattr(ctype, "align", 1), 1)
        if address % align:
            raise TargetMemoryFault(
                address, max(getattr(ctype, "size", 1), 1), operation,
                f"address not aligned to {align} for {ctype.name()}")

    # -- strings, heap, argv -----------------------------------------------
    def alloc(self, size: int) -> int:
        """Allocate zeroed heap space (the interface's alloc_target_space)."""
        return self.heap.alloc(size)

    def alloc_string(self, value: Union[str, bytes]) -> int:
        """Place a NUL-terminated string on the heap; returns its address."""
        raw = value.encode("utf-8") if isinstance(value, str) else bytes(value)
        address = self.alloc(len(raw) + 1)
        self.memory.write(address, raw + b"\0")
        return address

    def intern_string(self, value: Union[str, bytes]) -> int:
        """Like :meth:`alloc_string` but deduplicated (C literal pooling)."""
        raw = value.encode("utf-8") if isinstance(value, str) else bytes(value)
        address = self._interned.get(raw)
        if address is None:
            address = self.alloc_string(raw)
            self._interned[raw] = address
        return address

    def read_cstring(self, address: int, limit: int = 1 << 16) -> str:
        """Read a NUL-terminated target string (raises on unmapped)."""
        data = bytearray()
        while len(data) < limit:
            byte = self.memory.read(address + len(data), 1)
            if byte == b"\0":
                break
            data += byte
        return data.decode("utf-8", "replace")

    def set_argv(self, args: Sequence[str]) -> Symbol:
        """Install ``char **argv``: a NUL-terminated vector of interned
        argument strings; returns the argv global's symbol."""
        char_p = PointerType(CHAR)
        vector = self.alloc((len(args) + 1) * POINTER_SIZE)
        for index, arg in enumerate(args):
            self.write_value(vector + index * POINTER_SIZE, char_p,
                             self.intern_string(arg))
        self.write_value(vector + len(args) * POINTER_SIZE, char_p, 0)
        symbol = self.define("argv", PointerType(char_p))
        self.write_value(symbol.address, symbol.ctype, vector)
        return symbol
