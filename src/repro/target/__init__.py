"""The simulated inferior process and the paper's debugger interface.

This package is the "target side" of the reproduction: a segmented,
guarded byte memory (:mod:`repro.target.memory`), symbol tables and
stack frames (:mod:`repro.target.symbols`), the inferior itself
(:mod:`repro.target.program`), a small libc
(:mod:`repro.target.stdlib`), deterministic structure builders
(:mod:`repro.target.builder`), checkpoint/rollback
(:mod:`repro.target.snapshot`), and the narrow machine-independent
debugger interface everything above talks through
(:mod:`repro.target.interface`) — including a fault-injecting wrapper
for robustness testing and a live-gdb binding
(:mod:`repro.target.gdbadapter`).
"""

from repro.target.interface import (
    DebuggerInterface,
    FaultInjectingBackend,
    GovernedBackend,
    SimulatorBackend,
)
from repro.target.memory import Memory, TargetMemoryFault
from repro.target.program import TargetProgram
from repro.target.symbols import Symbol, SymbolKind, SymbolTable

__all__ = [
    "DebuggerInterface",
    "FaultInjectingBackend",
    "GovernedBackend",
    "Memory",
    "SimulatorBackend",
    "Symbol",
    "SymbolKind",
    "SymbolTable",
    "TargetMemoryFault",
    "TargetProgram",
]
