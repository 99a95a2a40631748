"""The paper's narrow, machine-independent debugger interface.

Everything above the target — the DUEL evaluator, the mini-C
interpreter, the CLI — talks to the debuggee exclusively through
:class:`DebuggerInterface` (cf. Hanson's *A Machine-Independent
Debugger — Revisited*: keep the unreliable target access behind a tiny
interface).  :class:`SimulatorBackend` binds it to a simulated
:class:`~repro.target.program.TargetProgram`;
:class:`~repro.target.gdbadapter.GdbBackend` binds the same interface
to a live gdb.  :class:`FaultInjectingBackend` wraps any backend with
deterministic fault injection so the error-reporting and recovery
paths can be tested without a flaky real target.
"""

from __future__ import annotations

import abc
import random
from typing import Optional, Sequence

from repro.core.errors import DuelTruncation
from repro.target.memory import TargetMemoryFault
from repro.target.program import TargetProgram
from repro.target.symbols import Symbol


class DebuggerInterface(abc.ABC):
    """The minimal set of target operations DUEL needs.

    Memory-access failures raise
    :class:`~repro.target.memory.TargetMemoryFault`; the core layer
    converts them to the paper-format ``DuelMemoryError``.  Lookup
    methods return ``None`` for absence rather than raising.
    """

    # -- symbols and types -------------------------------------------------
    @abc.abstractmethod
    def get_target_variable(self, name: str) -> Optional[Symbol]:
        """The symbol for ``name`` (innermost frame, then globals)."""

    @abc.abstractmethod
    def get_target_typedef(self, name: str):
        """The target's typedef ``name``, or None."""

    @abc.abstractmethod
    def get_target_struct(self, tag: str):
        """The target's ``struct tag``, or None."""

    @abc.abstractmethod
    def get_target_union(self, tag: str):
        """The target's ``union tag``, or None."""

    @abc.abstractmethod
    def get_target_enum(self, tag: str):
        """The target's ``enum tag``, or None."""

    @abc.abstractmethod
    def enum_constant(self, name: str):
        """``(value, ctype)`` for an enumeration constant, or None."""

    # -- frames ------------------------------------------------------------
    @abc.abstractmethod
    def frames_count(self) -> int:
        """Number of live stack frames."""

    @abc.abstractmethod
    def get_frame_variable(self, index: int, name: str) -> Optional[Symbol]:
        """The symbol for ``name`` in frame ``index`` (0 = innermost)."""

    # -- memory ------------------------------------------------------------
    @abc.abstractmethod
    def is_mapped(self, address: int, size: int = 1) -> bool:
        """True when ``[address, address+size)`` is readable."""

    @abc.abstractmethod
    def get_target_bytes(self, address: int, size: int) -> bytes:
        """Read raw target bytes (faults on unmapped access)."""

    @abc.abstractmethod
    def put_target_bytes(self, address: int, data: bytes) -> None:
        """Write raw target bytes (faults on unmapped access)."""

    @abc.abstractmethod
    def alloc_target_space(self, size: int) -> int:
        """Allocate debugger scratch space in the target."""

    # -- calls -------------------------------------------------------------
    @abc.abstractmethod
    def call_target_func(self, target, raw_args: Sequence):
        """Call a target function by name or entry address."""


class SimulatorBackend(DebuggerInterface):
    """The interface bound to a simulated inferior."""

    def __init__(self, program: TargetProgram):
        self.program = program

    # -- symbols and types -------------------------------------------------
    def get_target_variable(self, name: str) -> Optional[Symbol]:
        return self.program.lookup(name)

    def get_target_typedef(self, name: str):
        return self.program.types.typedefs.get(name)

    def get_target_struct(self, tag: str):
        return self.program.types.structs.get(tag)

    def get_target_union(self, tag: str):
        return self.program.types.unions.get(tag)

    def get_target_enum(self, tag: str):
        return self.program.types.enums.get(tag)

    def enum_constant(self, name: str):
        return self.program.types.enum_constants.get(name)

    # -- frames ------------------------------------------------------------
    def frames_count(self) -> int:
        return self.program.stack.depth

    def get_frame_variable(self, index: int, name: str) -> Optional[Symbol]:
        if not 0 <= index < self.program.stack.depth:
            return None
        return self.program.stack.frame(index).symbols.lookup(name)

    # -- memory ------------------------------------------------------------
    def is_mapped(self, address: int, size: int = 1) -> bool:
        return self.program.memory.is_mapped(address, size)

    def get_target_bytes(self, address: int, size: int) -> bytes:
        return self.program.memory.read(address, size)

    def put_target_bytes(self, address: int, data: bytes) -> None:
        self.program.memory.write(address, data)

    def alloc_target_space(self, size: int) -> int:
        return self.program.alloc(size)

    # -- calls -------------------------------------------------------------
    def call_target_func(self, target, raw_args: Sequence):
        return self.program.call(target, raw_args)


class GovernedBackend:
    """Meters target traffic against a query's resource governor.

    The evaluator wraps its backend in this before use, so the
    boundary Hanson's design keeps narrow is also where quotas are
    enforced: target function calls and scratch allocations charge the
    ``calls`` / ``allocs`` quotas, and both honour the cooperative
    cancel token first — a ^C lands *between* target operations, not
    only between generator steps.  While a call runs, the governor's
    checkpoint is the target program's
    :attr:`~repro.target.program.TargetProgram.checkpoint`, so the
    interpreter polls it and a deadline or a ^C also lands *inside*
    the call; such a stop is marked ``in_call`` for the session, which
    rolls the query back.  Everything else delegates transparently
    (reads stay zero-overhead: the step budget already bounds them,
    one step per value).
    """

    def __init__(self, inner: DebuggerInterface, governor):
        self.inner = inner
        self.governor = governor

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def call_target_func(self, target, raw_args: Sequence):
        governor = self.governor
        governor.checkpoint()
        governor.charge("calls")
        program = getattr(self.inner, "program", None)
        if program is None:
            return self.inner.call_target_func(target, raw_args)
        # Handed down for this one call and put back after, so a call
        # made from inside another (a debugger condition evaluated
        # while the program runs) leaves the outer one as it was.
        outer = program.checkpoint
        program.checkpoint = governor.checkpoint
        try:
            return self.inner.call_target_func(target, raw_args)
        except DuelTruncation as stop:
            stop.in_call = True
            raise
        finally:
            program.checkpoint = outer

    def alloc_target_space(self, size: int) -> int:
        governor = self.governor
        governor.checkpoint()
        governor.charge("allocs")
        return self.inner.alloc_target_space(size)


class TracingBackend:
    """Counts target traffic and attributes it to the active trace span.

    Sits outermost in the evaluator's wrapper chain (above
    :class:`GovernedBackend`), so every read/write/call/alloc the
    query performs — whichever engine drives it — bumps a
    process-wide counter here, and, when a
    :class:`~repro.obs.trace.QueryTracer` is attached, lands on the
    AST node currently being pulled; an access-traced query's tracer
    also records each read's and write's address and size here (the
    memory-access observatory's one hook).  With tracing off the
    per-read cost is one increment and one predicate check.  The
    inner read and write, and ``is_mapped`` (asked on every index
    bounds check and ``-->`` step, and metered by no hop), are bound
    once, at construction, so the ``__getattr__`` delegation of this
    hop and the governed one stays off the hot path.
    """

    def __init__(self, inner, tracer=None):
        self.inner = inner
        self.tracer = tracer
        self.reads = 0
        self.writes = 0
        self.calls = 0
        self.allocs = 0
        self._inner_get = inner.get_target_bytes
        self._inner_put = inner.put_target_bytes
        self.is_mapped = inner.is_mapped

    def __getattr__(self, name):
        return getattr(self.inner, name)

    # -- metered hot paths -------------------------------------------------
    def get_target_bytes(self, address: int, size: int) -> bytes:
        self.reads += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.on_read(address, size)
        return self._inner_get(address, size)

    def put_target_bytes(self, address: int, data: bytes) -> None:
        self.writes += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.on_write(address, len(data))
        self._inner_put(address, data)

    def call_target_func(self, target, raw_args: Sequence):
        self.calls += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.on_call()
        return self.inner.call_target_func(target, raw_args)

    def alloc_target_space(self, size: int) -> int:
        self.allocs += 1
        return self.inner.alloc_target_space(size)

    # -- reporting ---------------------------------------------------------
    def counts(self) -> dict:
        """The cumulative traffic counters as a plain dict."""
        return {"reads": self.reads, "writes": self.writes,
                "calls": self.calls, "allocs": self.allocs}


class FaultInjectingBackend(DebuggerInterface):
    """A deterministic fault-injecting wrapper around any backend.

    Robustness-test harness: reproduces the failure modes of a real,
    flaky target at the interface boundary so the paper-format error
    reporting and session recovery can be exercised on demand.

    Parameters (all faults are deterministic given the arguments):

    ``fail_read_at``
        1-based read indices (int or iterable) at which
        ``get_target_bytes`` raises a
        :class:`~repro.target.memory.TargetMemoryFault`.
    ``read_fault_rate`` / ``seed``
        Probability that any given read faults, driven by a private
        ``random.Random(seed)`` — reproducible pseudo-random chaos.
    ``unmap_after_reads`` / ``unmap_region``
        After the Nth read completes, unmap the named region of the
        underlying program — a structure disappearing mid-generator.
    ``fail_calls``
        When true, every ``call_target_func`` raises.

    The wrapper records what it injected in :attr:`injected`.
    """

    def __init__(self, inner: DebuggerInterface, *,
                 fail_read_at=(), read_fault_rate: float = 0.0,
                 seed: int = 0, unmap_after_reads: Optional[int] = None,
                 unmap_region: str = "heap", fail_calls: bool = False):
        self.inner = inner
        if isinstance(fail_read_at, int):
            fail_read_at = (fail_read_at,)
        self._fail_read_at = frozenset(fail_read_at)
        self._read_fault_rate = read_fault_rate
        self._rng = random.Random(seed)
        self._unmap_after_reads = unmap_after_reads
        self._unmap_region = unmap_region
        self._fail_calls = fail_calls
        #: Count of get_target_bytes calls seen so far.
        self.reads = 0
        #: Log of injected faults: (kind, detail) tuples.
        self.injected: list[tuple[str, object]] = []

    @property
    def program(self):
        """The underlying program (lets snapshot recovery see through)."""
        return getattr(self.inner, "program", None)

    # -- fault points ------------------------------------------------------
    def get_target_bytes(self, address: int, size: int) -> bytes:
        self.reads += 1
        if (self.reads in self._fail_read_at
                or (self._read_fault_rate
                    and self._rng.random() < self._read_fault_rate)):
            self.injected.append(("read", self.reads))
            raise TargetMemoryFault(address, size, "read",
                                    f"injected fault on read #{self.reads}")
        data = self.inner.get_target_bytes(address, size)
        if self._unmap_after_reads is not None \
                and self.reads == self._unmap_after_reads \
                and self.program is not None:
            self.injected.append(("unmap", self._unmap_region))
            self.program.memory.unmap(self._unmap_region)
        return data

    def call_target_func(self, target, raw_args: Sequence):
        if self._fail_calls:
            self.injected.append(("call", target))
            raise TargetMemoryFault(
                0, 0, "call", f"injected fault calling {target!r}")
        return self.inner.call_target_func(target, raw_args)

    # -- transparent delegation --------------------------------------------
    def get_target_variable(self, name: str) -> Optional[Symbol]:
        return self.inner.get_target_variable(name)

    def get_target_typedef(self, name: str):
        return self.inner.get_target_typedef(name)

    def get_target_struct(self, tag: str):
        return self.inner.get_target_struct(tag)

    def get_target_union(self, tag: str):
        return self.inner.get_target_union(tag)

    def get_target_enum(self, tag: str):
        return self.inner.get_target_enum(tag)

    def enum_constant(self, name: str):
        return self.inner.enum_constant(name)

    def frames_count(self) -> int:
        return self.inner.frames_count()

    def get_frame_variable(self, index: int, name: str) -> Optional[Symbol]:
        return self.inner.get_frame_variable(index, name)

    def is_mapped(self, address: int, size: int = 1) -> bool:
        return self.inner.is_mapped(address, size)

    def put_target_bytes(self, address: int, data: bytes) -> None:
        self.inner.put_target_bytes(address, data)

    def alloc_target_space(self, size: int) -> int:
        return self.inner.alloc_target_space(size)
