"""DUEL error types.

The paper specifies that errors carry the offending operand's symbolic
value::

    Illegal memory reference in x of x->y:
    ptr[48] = lvalue 0x16820.

:class:`DuelError` reproduces that shape: a *what* ("Illegal memory
reference"), the operand's role pattern ("x of x->y"), and the operand's
symbolic expression and value description.
"""

from __future__ import annotations

from typing import Optional


class DuelError(Exception):
    """Base class for errors raised while compiling/evaluating DUEL."""

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class DuelSyntaxError(DuelError):
    """Lexical or grammatical error in a DUEL expression."""

    def __init__(self, message: str, position: Optional[int] = None,
                 text: Optional[str] = None):
        self.position = position
        self.text = text
        if position is not None and text is not None:
            caret = " " * position + "^"
            message = f"{message}\n{text}\n{caret}"
        super().__init__(message)


class DuelTypeError(DuelError):
    """Operator applied to operands of unusable type.

    DUEL type-checks during evaluation (paper §Implementation), so these
    surface at query time, with symbolic context where available.
    """

    def __init__(self, message: str, symbolic: Optional[str] = None):
        if symbolic:
            message = f"{message} in {symbolic}"
        super().__init__(message)
        self.symbolic = symbolic


class DuelNameError(DuelError):
    """A name resolved to nothing: not a field, alias, variable, or enum."""

    def __init__(self, name: str):
        super().__init__(f"no symbol {name!r} in current context")
        self.name = name


class DuelMemoryError(DuelError):
    """Illegal target memory reference, in the paper's report format."""

    def __init__(self, role: str, pattern: str, operand_sym: str,
                 operand_desc: str):
        self.role = role
        self.pattern = pattern
        self.operand_sym = operand_sym
        self.operand_desc = operand_desc
        super().__init__(
            f"Illegal memory reference in {role} of {pattern}:\n"
            f"{operand_sym} = {operand_desc}.")


class DuelDepthError(DuelError):
    """A query nests too deeply for the evaluator's Python stack.

    The parser bounds nesting, but not a flat chain such as a
    thousand-term ``1 + 1 + ... + 1``, whose tree is as deep as it is
    long.  A bad query, not a sick target: it never feeds the serve
    layer's circuit breaker.
    """

    def __init__(self) -> None:
        super().__init__("expression nests too deeply to evaluate; "
                         "split it into shorter queries")


class DuelTargetError(DuelError):
    """A target-side operation failed outside plain memory access.

    Raised when the debugger interface rejects a function call or a
    scratch-space allocation (including injected faults).  Carries the
    structured fault when one is available, so tools can distinguish a
    flaky target from a bad query.
    """

    def __init__(self, message: str, fault: Optional[Exception] = None):
        super().__init__(message)
        self.fault = fault


#: Human noun for each governed resource (``DuelEvalLimit`` messages).
LIMIT_NOUNS = {
    "steps": "generator steps",
    "expand": "expanded nodes",
    "deadline_ms": "ms of wall-clock time",
    "lines": "output values",
    "calls": "target calls",
    "allocs": "target allocations",
    "symnodes": "symbolic nodes",
    "cancel": "interrupts",
}

#: Exhaustion phrase for each resource (truncation diagnostics).
LIMIT_PHRASES = {
    "steps": "step budget exhausted",
    "expand": "expand budget exhausted",
    "deadline_ms": "wall-clock deadline expired",
    "lines": "output quota exhausted",
    "calls": "target-call quota exhausted",
    "allocs": "target-allocation quota exhausted",
    "symnodes": "symbolic-node budget exhausted",
}


class DuelEvalLimit(DuelError):
    """Evaluation exhausted one of the governor's per-query limits.

    ``kind`` names the limit that tripped (``steps``, ``expand``,
    ``deadline_ms``, ``lines``, ``calls``, ``allocs``, ``symnodes``) so
    callers and users can tell a runaway generator from an expired
    deadline or a target-call storm.
    """

    def __init__(self, limit: Optional[int], kind: str = "steps"):
        noun = LIMIT_NOUNS.get(kind, kind)
        super().__init__(
            f"evaluation exceeded {limit} {noun}; use an explicit "
            f"bound or raise the session limit ('limits {kind} N')")
        self.limit = limit
        self.kind = kind


class DuelTruncation(DuelEvalLimit):
    """A limit tripped under the ``truncate`` policy.

    Not an error: the drive loop stops pulling values, keeps every
    partial result already produced, and prints :meth:`diagnostic` —
    the graceful-degradation counterpart of :class:`DuelEvalLimit`.
    Subclasses :class:`DuelEvalLimit` so programmatic callers that
    collect all values (``session.eval``) still see a limit exception.
    """

    def __init__(self, limit: Optional[int], kind: str):
        super().__init__(limit, kind)
        #: Values produced before the trip; the drive loop fills it in.
        self.produced: Optional[int] = None
        #: True when the trip stopped a running target call, which
        #: leaves the target half-mutated: the session then rolls the
        #: whole query back (a trip between values keeps its effects).
        self.in_call = False

    def diagnostic(self, produced: int) -> str:
        """The one-line paper-style truncation notice."""
        phrase = LIMIT_PHRASES.get(self.kind, f"{self.kind} limit reached")
        hint = ""
        if self.limit is not None:
            hint = f"; raise with 'limits {self.kind} {self.limit * 2}'"
        return f"(stopped: {produced} values, {phrase}{hint})"


class DuelCancelled(DuelTruncation):
    """The cooperative cancel token tripped (^C) mid-drive."""

    def __init__(self, reason: str = "interrupt"):
        super().__init__(None, "cancel")
        self.reason = reason
        message = f"evaluation interrupted ({reason})"
        self.message = message
        self.args = (message,)

    def diagnostic(self, produced: int) -> str:
        return f"(stopped: {produced} values, interrupted)"
