"""Parser for DUEL's concrete syntax.

The paper uses a yacc grammar; this is the equivalent recursive-descent
parser, with every C binary operator parsed by one precedence-climbing
loop over :data:`_BINARY`.  Precedence, loosest to tightest:

    ;                            sequence
    ,                            alternate
    =>                           imply
    =  op=  :=                   assignment / alias definition (right)
    ?:                           conditional
    ..                           to (nonassoc; also prefix ..e / postfix e..)
    ||  &&  |  ^  &              logical / bitwise
    ==  !=  ==?  !=?             equality (+ conditional-yield forms)
    <  >  <=  >=  <?  >?  <=?  >=?   relational (+ conditional-yield)
    <<  >>                       shift
    +  -                         additive
    *  /  %                      multiplicative
    unary: - + ! ~ * & ++ -- sizeof (type) #/ +/ */ &&/ ||/ <?/ >?/ ..e
           if/for/while expressions
    postfix: [] [[...]] (args) . -> --> -->> @ # ++ --
    primary: literals, names, _, (e), {e}

The right operand of ``.``/``->``/``-->`` is restricted to a bare name,
``(expr)``, ``{expr}``, or an if-expression, so that
``hash[0]-->next->scope`` parses as ``(hash[0]-->next)->scope`` the way
the paper's examples require.

Casts and declarations are recognised when a parenthesis/statement
begins with a type keyword, or with a typedef name known to the
``is_type_name`` predicate (supplied by the session, backed by the
debugger's symbol tables).

Nesting is bounded: every nested operand and assignment right-hand side
opens a level on the token stream (:meth:`TokenStream.enter`), and past
:data:`~repro.core.lexer.MAX_DEPTH` levels (about 63 nested
parentheses) the text is a :class:`DuelSyntaxError`, not a Python
``RecursionError``.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.errors import DuelSyntaxError
from repro.core.lexer import (KEYWORDS, LITERAL_KINDS, Token, TokenStream,
                              TYPE_KEYWORDS, unescape)
from repro.core import nodes as N

#: Tokens that can never begin an expression (used for ``e..`` postfix).
_NON_STARTERS = {")", "]", "]]", "}", ",", ";", "=>", "?", ":", "@", "#",
                 "[[", "..", "&&", "||"}

_ASSIGN_OPS = frozenset(("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=",
                         "^=", "<<=", ">>="))

_DECL_STARTERS = TYPE_KEYWORDS | {"typedef", "static", "extern", "register",
                                  "auto"}

#: Bracket depth change per token, for skipping declarations and casts.
_NESTING = {"(": 1, "[": 1, "{": 1, "[[": 2, ")": -1, "]": -1, "}": -1,
            "]]": -2}


def _c_binary(op: str, left: N.Node, right: N.Node) -> N.Node:
    return N.Binary(op, left, right)


def _compare_yield(op: str, left: N.Node, right: N.Node) -> N.Node:
    return N.CompareYield(op[:-1], left, right)


#: Every binary operator: its precedence level (higher binds tighter;
#: all are left-associative) and the node it builds.
_BINARY = {
    "||": (1, lambda op, left, right: N.OrOr(left, right)),
    "&&": (2, lambda op, left, right: N.AndAnd(left, right)),
    "|": (3, _c_binary),
    "^": (4, _c_binary),
    "&": (5, _c_binary),
    "==": (6, _c_binary), "!=": (6, _c_binary),
    "==?": (6, _compare_yield), "!=?": (6, _compare_yield),
    "<": (7, _c_binary), ">": (7, _c_binary),
    "<=": (7, _c_binary), ">=": (7, _c_binary),
    "<?": (7, _compare_yield), ">?": (7, _compare_yield),
    "<=?": (7, _compare_yield), ">=?": (7, _compare_yield),
    "<<": (8, _c_binary), ">>": (8, _c_binary),
    "+": (9, _c_binary), "-": (9, _c_binary),
    "*": (10, _c_binary), "/": (10, _c_binary), "%": (10, _c_binary),
}

class DuelParser:
    """Compiles DUEL source text into an AST."""

    def __init__(self, is_type_name: Optional[Callable[[str], bool]] = None):
        self.is_type_name = is_type_name or (lambda name: False)

    # -- public API -------------------------------------------------------
    def parse(self, text: str,
              stream: Optional[TokenStream] = None) -> N.Node:
        """The AST of ``text``, parsed from ``stream`` (its tokens,
        already lexed) when given; the stream then holds the parse's
        report of its literals and source slices."""
        if stream is None:
            stream = TokenStream(text)
        node = self._sequence(stream)
        if not stream.at_end:
            raise stream.error(
                f"unexpected {stream.peek().text!r} after expression")
        return node

    # -- sequence / declarations ---------------------------------------------
    def _sequence(self, s: TokenStream) -> N.Node:
        node = self._statement(s)
        while s.accept(";"):
            if s.at_end or s.peek().text == ")":
                return N.Sequence(node, None)  # trailing ; = side effects only
            node = N.Sequence(node, self._statement(s))
        return node

    def _statement(self, s: TokenStream) -> N.Node:
        if self._starts_declaration(s):
            return self._declaration(s)
        return self._alternate(s)

    def _starts_declaration(self, s: TokenStream) -> bool:
        token = s.peek()
        if token.kind != "name":
            return False
        if token.text in _DECL_STARTERS:
            return True
        # typedef-name declaration: "size_t n" (name followed by name/*).
        if self.is_type_name(token.text):
            look = s.peek(1)
            return look.kind == "name" or look.text == "*"
        return False

    def _declaration(self, s: TokenStream) -> N.Node:
        first = s.i
        depth = 0
        while not s.at_end:
            token = s.peek()
            if token.text == ";" and depth == 0:
                break
            depth += _NESTING.get(token.text, 0)
            s.next()
        if s.i == first:
            raise s.error("empty declaration")
        s.slices.append((first, s.i - 1))
        return N.Declaration(s.source(first, s.i - 1) + ";")

    # -- alternate / imply -----------------------------------------------------
    def _alternate(self, s: TokenStream) -> N.Node:
        node = self._imply(s)
        while s.accept(","):
            node = N.Alternate(node, self._imply(s))
        return node

    def _imply(self, s: TokenStream) -> N.Node:
        lefts = [self._assign(s)]
        while s.accept("=>"):
            lefts.append(self._assign(s))
        node = lefts.pop()
        while lefts:                    # right-associative
            node = N.Imply(lefts.pop(), node)
        return node

    # -- assignment / alias definition ------------------------------------------
    def _assign(self, s: TokenStream) -> N.Node:
        s.enter()
        node = self._conditional(s)
        token = s.peek()
        if token.text == ":=":
            if not isinstance(node, N.Name):
                raise s.error("alias definition needs a simple name "
                              "on the left of :=")
            s.next()
            node = N.Define(node.name, self._assign(s))
        elif token.text in _ASSIGN_OPS:
            s.next()
            node = N.Assign(token.text, node, self._assign(s))
        s.depth -= 1
        return node

    # -- conditional -----------------------------------------------------------
    def _conditional(self, s: TokenStream) -> N.Node:
        arms = []
        node = self._to(s)
        while s.accept("?"):
            then = self._assign(s)
            s.expect(":")
            arms.append((node, then))
            node = self._to(s)
        while arms:                     # a ? b : c ? d : e nests rightward
            cond, then = arms.pop()
            node = N.If(cond, then, node)
        return node

    # -- to ----------------------------------------------------------------------
    def _to(self, s: TokenStream) -> N.Node:
        if s.accept(".."):
            return N.To(None, self._binary(s))
        node = self._binary(s)
        if s.accept(".."):
            if self._expression_follows(s):
                return N.To(node, self._binary(s))
            return N.To(node, None)
        return node

    def _expression_follows(self, s: TokenStream) -> bool:
        token = s.peek()
        if token.kind == "eof":
            return False
        if token.kind == "op":
            return token.text not in _NON_STARTERS
        if token.kind == "name" and token.text == "else":
            return False
        return True

    # -- binary operators ------------------------------------------------------
    def _binary(self, s: TokenStream) -> N.Node:
        """Precedence climbing over :data:`_BINARY`.  Left operands wait
        on an explicit stack until an operator that binds no tighter
        arrives, so operator chains add no recursion."""
        node = self._unary(s)
        pending: list = []     # (level, build, op, left operand)
        while True:
            entry = _BINARY.get(s.peek().text)
            level = entry[0] if entry is not None else 0
            while pending and pending[-1][0] >= level:
                _, build, op, left = pending.pop()
                node = build(op, left, node)
            if entry is None:
                return node
            pending.append((level, entry[1], s.next().text, node))
            node = self._unary(s)

    # -- unary ---------------------------------------------------------------
    def _unary(self, s: TokenStream) -> N.Node:
        s.enter()
        prefix = self._PREFIX.get(s.peek().text)
        node = self._postfix(s) if prefix is None else prefix(self, s)
        s.depth -= 1
        return node

    def _operator(self, s: TokenStream) -> N.Node:
        op = s.next().text
        return N.Unary(op, self._unary(s))

    def _preincdec(self, s: TokenStream) -> N.Node:
        op = s.next().text
        return N.IncDec(op, self._unary(s), postfix=False)

    def _reduction(self, s: TokenStream) -> N.Node:
        op = s.next().text
        return N.Reduce(op[:-1], self._unary(s))

    def _prefix_to(self, s: TokenStream) -> N.Node:
        s.next()
        return N.To(None, self._binary(s))

    def _paren(self, s: TokenStream) -> N.Node:
        if self._starts_cast(s):
            return N.Cast(self._type_text(s), self._unary(s))
        return self._postfix(s)

    def _starts_cast(self, s: TokenStream) -> bool:
        look = s.peek(1)
        if look.kind != "name":
            return False
        if look.text in TYPE_KEYWORDS:
            return True
        if not self.is_type_name(look.text):
            return False
        # "(name)" is a cast only if followed by ")" then something that
        # a cast could apply to, or by "*"/ ")" inside.
        after = s.peek(2)
        return after.text in ("*", ")") or after.kind == "name"

    def _type_text(self, s: TokenStream) -> str:
        """Consume ``( type-name )``; return the type name's source."""
        s.expect("(")
        first = s.i
        depth = 1
        while not s.at_end:
            token = s.peek()
            if token.text == "(":
                depth += 1
            elif token.text == ")":
                depth -= 1
                if depth == 0:
                    break
            s.next()
        s.expect(")")
        s.slices.append((first, s.i - 2))
        return s.source(first, s.i - 2)

    def _sizeof(self, s: TokenStream) -> N.Node:
        s.next()  # 'sizeof'
        if s.peek().text == "(" and self._starts_cast(s):
            return N.SizeOf(type_text=self._type_text(s))
        return N.SizeOf(kid=self._unary(s))

    def _if_expr(self, s: TokenStream) -> N.Node:
        s.next()  # 'if'
        s.expect("(")
        cond = self._sequence(s)
        s.expect(")")
        then = self._conditional(s)
        els = None
        if s.peek().kind == "name" and s.peek().text == "else":
            s.next()
            els = self._conditional(s)
        return N.If(cond, then, els)

    def _while_expr(self, s: TokenStream) -> N.Node:
        s.next()
        s.expect("(")
        cond = self._sequence(s)
        s.expect(")")
        body = self._conditional(s)
        return N.While(cond, body)

    def _for_expr(self, s: TokenStream) -> N.Node:
        s.next()
        s.expect("(")
        init = None if s.peek().text == ";" else self._alternate(s)
        s.expect(";")
        cond = None if s.peek().text == ";" else self._alternate(s)
        s.expect(";")
        step = None if s.peek().text == ")" else self._alternate(s)
        s.expect(")")
        body = self._conditional(s)
        return N.For(init, cond, step, body)

    #: Unary-position dispatch on the token text (anything else is a
    #: postfix expression).
    _PREFIX = {
        **dict.fromkeys(("-", "+", "!", "~", "*", "&"), _operator),
        **dict.fromkeys(("++", "--"), _preincdec),
        **dict.fromkeys(("#/", "+/", "*/", "&&/", "||/", "<?/", ">?/"),
                        _reduction),
        "..": _prefix_to, "(": _paren, "sizeof": _sizeof, "if": _if_expr,
        "while": _while_expr, "for": _for_expr,
    }

    # -- postfix -----------------------------------------------------------------
    def _postfix(self, s: TokenStream) -> N.Node:
        node = self._primary(s)
        while True:
            suffix = self._SUFFIX.get(s.peek().text)
            if suffix is None:
                return node
            node = suffix(self, s, s.next(), node)

    def _index(self, s: TokenStream, token: Token, node: N.Node) -> N.Node:
        index = self._sequence(s)
        s.expect("]")
        return N.Index(node, index)

    def _select(self, s: TokenStream, token: Token, node: N.Node) -> N.Node:
        selector = self._sequence(s)
        s.expect("]")
        s.expect("]")
        return N.Select(node, selector)

    def _call(self, s: TokenStream, token: Token, node: N.Node) -> N.Node:
        args = []
        if s.peek().text != ")":
            args.append(self._imply(s))
            while s.accept(","):
                args.append(self._imply(s))
        s.expect(")")
        return N.Call(node, tuple(args))

    def _with(self, s: TokenStream, token: Token, node: N.Node) -> N.Node:
        return N.With(node, self._with_operand(s), arrow=(token.text == "->"))

    def _expand(self, s: TokenStream, token: Token, node: N.Node) -> N.Node:
        return N.Expand(node, self._with_operand(s),
                        breadth_first=(token.text == "-->>"))

    def _until(self, s: TokenStream, token: Token, node: N.Node) -> N.Node:
        return N.Until(node, self._guard_operand(s))

    def _index_alias(self, s: TokenStream, token: Token,
                     node: N.Node) -> N.Node:
        name = s.next()
        if name.kind != "name" or name.text in KEYWORDS:
            raise s.error("expected index-alias name after #")
        return N.IndexAlias(node, name.text)

    def _postincdec(self, s: TokenStream, token: Token,
                    node: N.Node) -> N.Node:
        return N.IncDec(token.text, node, postfix=True)

    #: Postfix dispatch on the token text after an operand.
    _SUFFIX = {"[": _index, "[[": _select, "(": _call, ".": _with,
               "->": _with, "-->": _expand, "-->>": _expand, "@": _until,
               "#": _index_alias, "++": _postincdec, "--": _postincdec}

    def _with_operand(self, s: TokenStream) -> N.Node:
        """Right side of . -> --> : name | (expr) | {expr} | if-expr."""
        token = s.peek()
        if token.kind == "name" and token.text == "if":
            return self._if_expr(s)
        if token.text in ("(", "{"):
            return self._bracketed(s)
        if token.kind == "name" and token.text not in KEYWORDS:
            s.next()
            return N.Name(token.text)
        raise s.error("expected field name or (expression) after ./->/-->")

    def _guard_operand(self, s: TokenStream) -> N.Node:
        """Right side of @ : constant | name | (expr) | {expr}."""
        token = s.peek()
        if token.text in ("(", "{"):
            return self._bracketed(s)
        if token.kind in ("num", "fnum", "char"):
            return self._primary(s)
        if token.text in ("-", "+") and s.peek(1).kind in ("num", "fnum",
                                                           "char"):
            s.next()
            return N.Unary(token.text, self._primary(s))
        if token.kind == "name" and token.text not in KEYWORDS:
            s.next()
            return N.Name(token.text)
        raise s.error("expected constant, name, or (expression) after @")

    def _bracketed(self, s: TokenStream) -> N.Node:
        """``(e)`` is ``e``; ``{e}`` is the group ``{e}``."""
        if s.next().text == "(":
            node = self._sequence(s)
            s.expect(")")
            return node
        node = self._sequence(s)
        s.expect("}")
        return N.Group(node)

    # -- primary -----------------------------------------------------------------
    def _primary(self, s: TokenStream) -> N.Node:
        token = s.peek()
        kind = token.kind
        if kind in LITERAL_KINDS:
            node = literal(token, s.text)
            s.literals.append((s.i, node))
        elif kind == "name":
            if token.text == "_":
                node = N.Underscore()
            elif token.text == "frame" and s.peek(1).text == "(":
                s.next()
                s.expect("(")
                index = self._sequence(s)
                s.expect(")")
                return N.FrameExpr(index)
            elif token.text in KEYWORDS:
                raise s.error(f"unexpected keyword {token.text!r}")
            else:
                node = N.Name(token.text)
        elif token.text in ("(", "{"):
            return self._bracketed(s)
        else:
            raise s.error(
                f"expected expression, found {token.text or 'end of input'!r}")
        s.next()
        return node


def literal(token: Token, text: str) -> N.Node:
    """The node of one literal token of ``text``, for the parser and for
    a prepared statement shape alike.

    An integer constant is ``0x`` hex, leading-``0`` octal or decimal.
    A nonzero octal constant displays as its decimal value (``x[010]``
    prints as ``x[8]``), so symbolic output never reads ``010`` as ten.
    A malformed one, or a string holding a character past Latin-1, is a
    :class:`DuelSyntaxError` at the token.
    """
    kind = token.kind
    spelling = token.text
    if kind == "fnum":
        return N.Constant(float(spelling), "double", spelling)
    if kind == "char":
        body = unescape(spelling[1:-1])
        return N.Constant(ord(body) & 0xFF, "char", spelling)
    if kind == "string":
        try:
            value = unescape(spelling[1:-1]).encode("latin-1")
        except UnicodeEncodeError:
            raise DuelSyntaxError("character outside Latin-1 in string "
                                  "literal", token.start, text) from None
        return N.StringLiteral(value, spelling)
    body = spelling.rstrip("uUlL")
    if body[:2] in ("0x", "0X"):
        base, name = 16, "hexadecimal"
    elif body[0] == "0":
        base, name = 8, "octal"
    else:
        base, name = 10, "decimal"
    try:
        value = int(body, base)
    except ValueError:
        raise DuelSyntaxError(f"invalid {name} constant {spelling!r}",
                              token.start, text) from None
    suffix = spelling[len(body):]
    if base == 8 and value:
        spelling = f"{value}{suffix}"
    suffix = suffix.lower()
    unsigned = "u" in suffix
    long_ = "l" in suffix
    if long_ and unsigned:
        hint = "ulong"
    elif long_:
        hint = "long"
    elif unsigned:
        hint = "uint"
    elif value > 0x7FFFFFFF:
        hint = "long"
    else:
        hint = "int"
    return N.Constant(value, hint, spelling)


def parse(text: str,
          is_type_name: Optional[Callable[[str], bool]] = None) -> N.Node:
    """Module-level convenience wrapper around :class:`DuelParser`."""
    return DuelParser(is_type_name).parse(text)
