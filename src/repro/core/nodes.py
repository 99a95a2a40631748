"""AST nodes for DUEL expressions.

"All AST nodes have an op field, which identifies the node's operand,
and a kids field, which is an array of pointers to the operand nodes.
Nodes for specific operators have additional fields" (paper
§Semantics).  Nodes are pure data; evaluation lives in
:mod:`repro.core.eval` (mirroring the paper's single ``eval`` that
switches on ``op``), and the explicit state-machine engine in
:mod:`repro.core.statemachine` reuses the same nodes.

Each node also knows how to print itself in the paper's LISP-like AST
notation, e.g. ``(plus (to 1 3) (alternate 5 9))``, which the tests use
to pin down parses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


class Node:
    """Base AST node: an ``op`` plus ``kids``."""

    op: str = "?"

    @property
    def kids(self) -> tuple["Node", ...]:
        return ()

    def sexpr(self) -> str:
        """The paper's LISP-like notation for ASTs."""
        inner = " ".join(k.sexpr() for k in self.kids)
        extra = self._sexpr_extra()
        parts = [self.op]
        if extra:
            parts.append(extra)
        if inner:
            parts.append(inner)
        return "(" + " ".join(parts) + ")"

    def _sexpr_extra(self) -> str:
        return ""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.sexpr()


@dataclass(repr=False)
class Constant(Node):
    """A literal: int, float, or character constant."""

    value: object
    type_hint: str = "int"  # int | uint | long | ulong | double | char
    text: str = ""
    op: str = field(default="constant", init=False)

    def _sexpr_extra(self) -> str:
        return self.text or str(self.value)


@dataclass(repr=False)
class StringLiteral(Node):
    """A C string literal (interned into target space at eval time)."""

    value: bytes
    text: str = ""
    op: str = field(default="string", init=False)

    def _sexpr_extra(self) -> str:
        return self.text or repr(self.value)


@dataclass(repr=False)
class Name(Node):
    """An identifier, resolved by ``fetch`` at evaluation time."""

    name: str
    op: str = field(default="name", init=False)

    def _sexpr_extra(self) -> str:
        return f'"{self.name}"'


@dataclass(repr=False)
class Underscore(Node):
    """``_`` — the operand of the nearest enclosing with."""

    op: str = field(default="underscore", init=False)


@dataclass(repr=False)
class Unary(Node):
    """Prefix unary operator: - + ! ~ * &."""

    operator: str
    kid: Node
    op: str = field(default="unary", init=False)

    def __post_init__(self) -> None:
        names = {"-": "negate", "+": "uplus", "!": "not", "~": "bitnot",
                 "*": "indirect", "&": "address"}
        self.op = names.get(self.operator, self.operator)

    @property
    def kids(self) -> tuple[Node, ...]:
        return (self.kid,)


@dataclass(repr=False)
class IncDec(Node):
    """``++``/``--`` in either fixity."""

    operator: str
    kid: Node
    postfix: bool
    op: str = field(default="incdec", init=False)

    def __post_init__(self) -> None:
        base = "inc" if self.operator == "++" else "dec"
        self.op = ("post" if self.postfix else "pre") + base

    @property
    def kids(self) -> tuple[Node, ...]:
        return (self.kid,)


_BINARY_OPS = {
    "+": "plus", "-": "minus", "*": "multiply", "/": "divide", "%": "mod",
    "<<": "shl", ">>": "shr", "&": "bitand", "|": "bitor", "^": "bitxor",
    "<": "lt", ">": "gt", "<=": "le", ">=": "ge", "==": "eq", "!=": "ne",
}


@dataclass(repr=False)
class Binary(Node):
    """A C binary operator (single-valued apply per operand pair)."""

    operator: str
    left: Node
    right: Node
    op: str = field(default="binary", init=False)

    def __post_init__(self) -> None:
        self.op = _BINARY_OPS.get(self.operator, self.operator)

    @property
    def kids(self) -> tuple[Node, ...]:
        return (self.left, self.right)


@dataclass(repr=False)
class Assign(Node):
    """``=`` and compound assignments."""

    operator: str  # "=", "+=", ...
    left: Node
    right: Node
    op: str = field(default="assign", init=False)

    def __post_init__(self) -> None:
        if self.operator != "=":
            self.op = "assign" + self.operator[:-1]

    @property
    def kids(self) -> tuple[Node, ...]:
        return (self.left, self.right)


@dataclass(repr=False)
class CompareYield(Node):
    """``>?``, ``>=?``, ``<?``, ``<=?``, ``==?``, ``!=?``.

    Produces the *left* operand when the comparison holds (paper: "The
    '>?' operator ... returns the left one when the comparison is
    true").
    """

    operator: str  # without the trailing "?"
    left: Node
    right: Node
    op: str = field(default="ifcmp", init=False)

    def __post_init__(self) -> None:
        names = {">": "ifgt", ">=": "ifge", "<": "iflt", "<=": "ifle",
                 "==": "ifeq", "!=": "ifne"}
        self.op = names[self.operator]

    @property
    def kids(self) -> tuple[Node, ...]:
        return (self.left, self.right)


@dataclass(repr=False)
class Alternate(Node):
    """``e1,e2`` — e1's values then e2's values."""

    left: Node
    right: Node
    op: str = field(default="alternate", init=False)

    @property
    def kids(self) -> tuple[Node, ...]:
        return (self.left, self.right)


@dataclass(repr=False)
class To(Node):
    """``e1..e2`` (inclusive); ``lo=None`` for ``..e``; ``hi=None`` for ``e..``."""

    lo: Optional[Node]
    hi: Optional[Node]
    op: str = field(default="to", init=False)

    @property
    def kids(self) -> tuple[Node, ...]:
        return tuple(k for k in (self.lo, self.hi) if k is not None)

    def _sexpr_extra(self) -> str:
        if self.lo is None:
            return "prefix"
        if self.hi is None:
            return "unbounded"
        return ""


@dataclass(repr=False)
class AndAnd(Node):
    """``e1 && e2`` with generator semantics."""

    left: Node
    right: Node
    op: str = field(default="andand", init=False)

    @property
    def kids(self) -> tuple[Node, ...]:
        return (self.left, self.right)


@dataclass(repr=False)
class OrOr(Node):
    """``e1 || e2`` with generator semantics."""

    left: Node
    right: Node
    op: str = field(default="oror", init=False)

    @property
    def kids(self) -> tuple[Node, ...]:
        return (self.left, self.right)


@dataclass(repr=False)
class If(Node):
    """``if (e1) e2 [else e3]`` — also the ``?:`` desugaring."""

    cond: Node
    then: Node
    els: Optional[Node] = None
    op: str = field(default="if", init=False)

    @property
    def kids(self) -> tuple[Node, ...]:
        if self.els is None:
            return (self.cond, self.then)
        return (self.cond, self.then, self.els)


@dataclass(repr=False)
class While(Node):
    """``while (e1) e2`` (paper WHILE: e2 repeats while all e1 non-zero)."""

    cond: Node
    body: Node
    op: str = field(default="while", init=False)

    @property
    def kids(self) -> tuple[Node, ...]:
        return (self.cond, self.body)


@dataclass(repr=False)
class For(Node):
    """``for (init; cond; step) body`` cast as an expression."""

    init: Optional[Node]
    cond: Optional[Node]
    step: Optional[Node]
    body: Node
    op: str = field(default="for", init=False)

    @property
    def kids(self) -> tuple[Node, ...]:
        return tuple(k for k in (self.init, self.cond, self.step, self.body)
                     if k is not None)


@dataclass(repr=False)
class Sequence(Node):
    """``e1 ; e2`` — drain e1 discarding, then e2's values.

    ``right=None`` models a trailing semicolon (side effects only).
    """

    left: Node
    right: Optional[Node]
    op: str = field(default="sequence", init=False)

    @property
    def kids(self) -> tuple[Node, ...]:
        if self.right is None:
            return (self.left,)
        return (self.left, self.right)


@dataclass(repr=False)
class Imply(Node):
    """``e1 => e2`` — e2's values for each value of e1."""

    left: Node
    right: Node
    op: str = field(default="imply", init=False)

    @property
    def kids(self) -> tuple[Node, ...]:
        return (self.left, self.right)


@dataclass(repr=False)
class Define(Node):
    """``name := e`` — alias name to each of e's values."""

    name: str
    kid: Node
    op: str = field(default="define", init=False)

    @property
    def kids(self) -> tuple[Node, ...]:
        return (self.kid,)

    def _sexpr_extra(self) -> str:
        return f'"{self.name}"'


@dataclass(repr=False)
class Declaration(Node):
    """``int i;`` — aliases to freshly allocated target locations."""

    text: str
    op: str = field(default="decl", init=False)

    def _sexpr_extra(self) -> str:
        return f'"{self.text}"'


@dataclass(repr=False)
class With(Node):
    """``e1.e2`` / ``e1->e2`` — evaluate e2 in e1's scope."""

    left: Node
    right: Node
    arrow: bool
    op: str = field(default="with", init=False)

    def __post_init__(self) -> None:
        self.op = "witharrow" if self.arrow else "with"

    @property
    def kids(self) -> tuple[Node, ...]:
        return (self.left, self.right)


@dataclass(repr=False)
class Expand(Node):
    """``e1-->e2`` (dfs) / ``e1-->>e2`` (bfs extension)."""

    root: Node
    traversal: Node
    breadth_first: bool = False
    op: str = field(default="dfs", init=False)

    def __post_init__(self) -> None:
        self.op = "bfs" if self.breadth_first else "dfs"

    @property
    def kids(self) -> tuple[Node, ...]:
        return (self.root, self.traversal)


@dataclass(repr=False)
class Select(Node):
    """``e1[[e2]]`` — the e2-th values (0-based) of e1's sequence."""

    seq: Node
    selector: Node
    op: str = field(default="select", init=False)

    @property
    def kids(self) -> tuple[Node, ...]:
        return (self.seq, self.selector)


@dataclass(repr=False)
class Reduce(Node):
    """Reductions: ``#/e`` (count) plus APL-style ``+/ */ &&/ ||/ <?/ >?/``."""

    operator: str  # "#", "+", "*", "&&", "||", "<?", ">?"
    kid: Node
    op: str = field(default="reduce", init=False)

    def __post_init__(self) -> None:
        names = {"#": "count", "+": "sum", "*": "product",
                 "&&": "all", "||": "any", "<?": "min", ">?": "max"}
        self.op = names[self.operator]

    @property
    def kids(self) -> tuple[Node, ...]:
        return (self.kid,)


@dataclass(repr=False)
class IndexAlias(Node):
    """``e#name`` — name aliases the 0-based position of each value."""

    kid: Node
    name: str
    op: str = field(default="indexalias", init=False)

    @property
    def kids(self) -> tuple[Node, ...]:
        return (self.kid,)

    def _sexpr_extra(self) -> str:
        return f'"{self.name}"'


@dataclass(repr=False)
class Until(Node):
    """``e@c`` — e's values up to the first where the guard fires."""

    kid: Node
    guard: Node
    op: str = field(default="until", init=False)

    @property
    def kids(self) -> tuple[Node, ...]:
        return (self.kid, self.guard)


@dataclass(repr=False)
class Group(Node):
    """``{e}`` — force the value, not the symbol, in symbolic output."""

    kid: Node
    op: str = field(default="group", init=False)

    @property
    def kids(self) -> tuple[Node, ...]:
        return (self.kid,)


@dataclass(repr=False)
class Index(Node):
    """``e1[e2]`` C indexing (operands may generate)."""

    base: Node
    index: Node
    op: str = field(default="index", init=False)

    @property
    def kids(self) -> tuple[Node, ...]:
        return (self.base, self.index)


@dataclass(repr=False)
class Call(Node):
    """``f(args...)`` — target call; generator args give combinations."""

    func: Node
    args: tuple[Node, ...]
    op: str = field(default="call", init=False)

    @property
    def kids(self) -> tuple[Node, ...]:
        return (self.func,) + self.args


@dataclass(repr=False)
class Cast(Node):
    """``(type)e``."""

    type_text: str
    kid: Node
    op: str = field(default="cast", init=False)

    @property
    def kids(self) -> tuple[Node, ...]:
        return (self.kid,)

    def _sexpr_extra(self) -> str:
        return f'"{self.type_text}"'


@dataclass(repr=False)
class SizeOf(Node):
    """``sizeof e`` or ``sizeof(type)``."""

    kid: Optional[Node] = None
    type_text: Optional[str] = None
    op: str = field(default="sizeof", init=False)

    @property
    def kids(self) -> tuple[Node, ...]:
        return (self.kid,) if self.kid is not None else ()

    def _sexpr_extra(self) -> str:
        return f'"{self.type_text}"' if self.type_text else ""


@dataclass(repr=False)
class FrameExpr(Node):
    """``frame(e)`` — extension: enter stack frame e's scope."""

    index: Node
    op: str = field(default="frame", init=False)

    @property
    def kids(self) -> tuple[Node, ...]:
        return (self.index,)


def walk(node: Node):
    """Yield every node in the tree, preorder (iteratively: a flat
    chain such as ``1 + 1 + ... + 1`` is as deep as it is long)."""
    pending = [node]
    while pending:
        node = pending.pop()
        yield node
        pending.extend(reversed(node.kids))


def node_count(node: Node) -> int:
    """Total nodes in an AST (conciseness metrics use this)."""
    return sum(1 for _ in walk(node))

