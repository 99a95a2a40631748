"""Mini-C error types."""

from __future__ import annotations

from typing import Optional

from repro.target.program import TargetRuntimeError


class MiniCError(Exception):
    """Base class for mini-C compile/runtime errors."""


class MiniCSyntaxError(MiniCError):
    """Lexical or grammatical error, with line information."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MiniCTypeError(MiniCError):
    """Semantic error found while resolving declarations/expressions."""


class MiniCRuntimeError(MiniCError, TargetRuntimeError):
    """Error raised while executing a mini-C program."""
