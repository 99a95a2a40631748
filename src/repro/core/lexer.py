"""Hand-written lexer for DUEL (the paper: "yacc-based parser and the
hand-written lexer").

Tokenises the full DUEL vocabulary: the C token set plus ``..``,
``-->`` (and the ``-->>`` BFS extension), ``[[``/``]]``, the
conditional-yield comparisons ``>? >=? <? <=? ==? !=?``, ``:=``,
``=>``, ``@``, ``#``, ``#/`` (count) and the APL-style reductions
``+/ */ &&/ ||/ <?/ >?/``, and ``{``/``}`` grouping.  Comments start
with ``##`` (DUEL reserves ``#``; in gdb the paper's one-line change
lets ``#`` through).

Tricky cases handled here:

* ``1..3`` lexes as ``1`` ``..`` ``3`` (not the float ``1.``);
* ``a[b[c[0]]]`` — nested ``]`` pairs can lex as ``]]``; the parser
  splits those back (see :meth:`TokenStream.split_rbracket`).
"""

from __future__ import annotations

import re
from typing import Optional

from repro.core.errors import DuelSyntaxError

KEYWORDS = frozenset(
    "if else while for sizeof "
    "void char short int long signed unsigned float double _Bool "
    "struct union enum const volatile typedef static extern register "
    "auto".split()
)

#: Type-introducing keywords (used by the parser for casts/declarations).
TYPE_KEYWORDS = frozenset(
    "void char short int long signed unsigned float double _Bool "
    "struct union enum const volatile".split()
)

# Longest-match-first operator table.
OPERATORS = [
    "-->>", "<<=", ">>=", "==?", "!=?", "<=?", ">=?",
    "-->", "<?/", ">?/", "&&/", "||/",
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "++", "--", "->", "..", "=>", ":=", "[[", "]]",
    "<?", ">?", "#/", "+/", "*/",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "~", "^", "&", "|",
    "(", ")", "[", "]", "{", "}", ",", ";", ":", "?", "@", "#", ".",
]

#: The operators that begin with each character, longest first: one
#: dictionary probe and a few ``startswith`` calls per operator token.
_OPERATORS_BY_FIRST = {first: tuple(op for op in OPERATORS if op[0] == first)
                       for first in {op[0] for op in OPERATORS}}

#: The rest of a name (its first character is a letter or ``_``).
_NAME = re.compile(r"\w+")

_OCTAL_DIGITS = "01234567"
_HEX_DIGITS = "0123456789abcdefABCDEF"


#: What stands for a literal of each kind in a statement shape: the
#: plainest literal of that kind, which no name or operator spells.
#: One per kind, since the grammar tells the kinds apart (``@`` takes a
#: number or a char, never a string).
_PLACEHOLDERS = {"num": "0", "fnum": "0.0", "char": "'0'", "string": '""'}

#: The token kinds that spell a literal.
LITERAL_KINDS = frozenset(_PLACEHOLDERS)


class Token:
    """One lexical token with its source span (for decl/cast slicing)."""

    __slots__ = ("kind", "text", "start", "end")

    def __init__(self, kind: str, text: str, start: int, end: int):
        self.kind = kind  # "num" | "fnum" | "char" | "string" | "name" | "op" | "eof"
        self.text = text
        self.start = start
        self.end = end

    def is_op(self, *ops: str) -> bool:
        return self.kind == "op" and self.text in ops

    def __repr__(self) -> str:  # pragma: no cover
        return f"Token({self.kind},{self.text!r})"


_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "a": "\a", "b": "\b",
            "f": "\f", "v": "\v", "\\": "\\", "'": "'",
            '"': '"', "?": "?"}


def tokenize(text: str) -> list[Token]:
    """Lex a DUEL input line into tokens (plus a trailing EOF token)."""
    tokens: list[Token] = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch in " \t\r\n":
            pos += 1
            continue
        start = pos
        if ch.isdigit() or (ch == "." and text[pos + 1:pos + 2].isdigit()):
            pos, token = _lex_number(text, pos)
        elif ch.isalpha() or ch == "_":
            pos = _NAME.match(text, pos).end()
            token = Token("name", text[start:pos], start, pos)
        elif ch == "'":
            pos, token = _lex_char(text, pos)
        elif ch == '"':
            pos, token = _lex_string(text, pos)
        elif text.startswith("##", pos):
            break  # comment runs to end of line
        else:
            for op in _OPERATORS_BY_FIRST.get(ch, ()):
                if text.startswith(op, pos):
                    break
            else:
                raise DuelSyntaxError(f"bad character {ch!r}", pos, text)
            pos += len(op)
            token = Token("op", op, start, pos)
        tokens.append(token)
    tokens.append(Token("eof", "", n, n))
    return tokens


def shape(tokens: list[Token]) -> tuple:
    """The statement shape of a token list: every token's text, with
    each literal's replaced by its kind's placeholder, so ``x[3]`` and
    ``x[ 4 ]`` share a shape and ``x[3]`` and ``x["3"]`` do not."""
    return tuple([_PLACEHOLDERS.get(token.kind, token.text)
                  for token in tokens])


def _lex_number(text: str, pos: int) -> tuple[int, Token]:
    start = pos
    n = len(text)
    if text.startswith(("0x", "0X"), pos):
        pos += 2
        while pos < n and text[pos] in _HEX_DIGITS:
            pos += 1
        pos = _int_suffix(text, pos)
        return pos, Token("num", text[start:pos], start, pos)
    while pos < n and text[pos].isdigit():
        pos += 1
    is_float = False
    # "1..3" must not lex "1." as a float.
    if (pos < n and text[pos] == "."
            and not text.startswith("..", pos)):
        is_float = True
        pos += 1
        while pos < n and text[pos].isdigit():
            pos += 1
    if pos < n and text[pos] in "eE":
        look = pos + 1
        if look < n and text[look] in "+-":
            look += 1
        if look < n and text[look].isdigit():
            is_float = True
            pos = look
            while pos < n and text[pos].isdigit():
                pos += 1
    if is_float:
        return pos, Token("fnum", text[start:pos], start, pos)
    pos = _int_suffix(text, pos)
    return pos, Token("num", text[start:pos], start, pos)


def _int_suffix(text: str, pos: int) -> int:
    n = len(text)
    while pos < n and text[pos] in "uUlL":
        pos += 1
    return pos


def _lex_char(text: str, pos: int) -> tuple[int, Token]:
    start = pos
    pos += 1  # opening quote
    n = len(text)
    if pos >= n:
        raise DuelSyntaxError("unterminated character constant", start, text)
    if text[pos] == "\\":
        pos = _skip_escape(text, pos)
    else:
        pos += 1
    if pos >= n or text[pos] != "'":
        raise DuelSyntaxError("unterminated character constant", start, text)
    pos += 1
    return pos, Token("char", text[start:pos], start, pos)


def _lex_string(text: str, pos: int) -> tuple[int, Token]:
    start = pos
    pos += 1
    n = len(text)
    while pos < n and text[pos] != '"':
        if text[pos] == "\\":
            pos = _skip_escape(text, pos)
        else:
            pos += 1
    if pos >= n:
        raise DuelSyntaxError("unterminated string literal", start, text)
    pos += 1
    return pos, Token("string", text[start:pos], start, pos)


def _skip_escape(text: str, pos: int) -> int:
    """The end of the escape sequence whose backslash is at ``pos``.

    As in C: ``\\x`` takes every hex digit after it and needs one, an
    octal escape takes at most three digits 0-7 (``"\\08"`` is NUL then
    ``8``), and any other character stands for itself.
    """
    backslash = pos
    pos += 1
    n = len(text)
    if pos >= n:
        raise DuelSyntaxError("dangling backslash", backslash, text)
    if text[pos] == "x":
        pos += 1
        if pos >= n or text[pos] not in _HEX_DIGITS:
            raise DuelSyntaxError("\\x used with no following hex digits",
                                  backslash, text)
        while pos < n and text[pos] in _HEX_DIGITS:
            pos += 1
        return pos
    if text[pos] in _OCTAL_DIGITS:
        end = min(pos + 3, n)
        pos += 1
        while pos < end and text[pos] in _OCTAL_DIGITS:
            pos += 1
        return pos
    return pos + 1


def unescape(body: str) -> str:
    """Interpret C escape sequences in a char/string literal body
    (one the lexer accepted, so every ``\\x`` has a hex digit)."""
    out = []
    i = 0
    n = len(body)
    while i < n:
        ch = body[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        i += 1
        ch = body[i]
        if ch == "x":
            i += 1
            start = i
            while i < n and body[i] in _HEX_DIGITS:
                i += 1
            out.append(chr(int(body[start:i], 16) & 0xFF))
            continue
        if ch in _OCTAL_DIGITS:
            start = i
            while i < n and body[i] in _OCTAL_DIGITS and i - start < 3:
                i += 1
            out.append(chr(int(body[start:i], 8) & 0xFF))
            continue
        out.append(_ESCAPES.get(ch, ch))
        i += 1
    return "".join(out)


#: How deeply sub-expressions may nest (see :meth:`TokenStream.enter`).
MAX_DEPTH = 128


class TokenStream:
    """Cursor over a token list with pushback and ``]]`` splitting.

    ``depth`` counts the parser's open nested productions; the parser
    calls :meth:`enter` on the way into one, so a pathologically nested
    input is a syntax error rather than a Python ``RecursionError``.

    The parse reports what a prepared statement shape needs
    (:meth:`DuelSession.prepare <repro.core.session.DuelSession.prepare>`):
    ``literals``, each literal node with its token's index, in token
    order, and ``slices``, the first and last token index of each
    stretch of raw source copied into the AST (declarations, cast and
    ``sizeof`` type names).
    """

    def __init__(self, text: str):
        self.text = text
        tokens = tokenize(text)
        # Two spare EOFs: peek(1) and peek(2) never index past the end.
        tokens += tokens[-1:] * 2
        self.tokens = tokens
        self.i = 0
        self.depth = 0
        self.literals: list = []
        self.slices: list[tuple[int, int]] = []

    def source(self, first: int, last: int) -> str:
        """The raw text from token ``first`` through token ``last``."""
        return self.text[self.tokens[first].start:self.tokens[last].end]

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.i + ahead]

    def next(self) -> Token:
        token = self.tokens[self.i]
        if token.kind != "eof":
            self.i += 1
        return token

    def accept(self, op: str) -> Optional[Token]:
        token = self.tokens[self.i]
        if token.text == op:      # only an operator token spells one
            self.i += 1
            return token
        return None

    def expect(self, op: str) -> Token:
        token = self.peek()
        if op == "]" and token.text == "]]":
            return self.split_rbracket()
        if op == "[" and token.text == "[[":
            return self.split_lbracket()
        if token.text != op:
            raise DuelSyntaxError(
                f"expected {op!r}, found {token.text or 'end of input'!r}",
                token.start, self.text)
        return self.next()

    def enter(self) -> None:
        """Open one more nested production (the caller closes it with
        ``depth -= 1``); past :data:`MAX_DEPTH` the text is rejected."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise self.error("expression nested too deeply")

    def split_rbracket(self) -> Token:
        """Split a ``]]`` token into two ``]`` (for ``a[b[0]]``)."""
        token = self.peek()
        assert token.is_op("]]")
        first = Token("op", "]", token.start, token.start + 1)
        rest = Token("op", "]", token.start + 1, token.end)
        self.tokens[self.i] = rest
        return first

    def split_lbracket(self) -> Token:
        token = self.peek()
        assert token.is_op("[[")
        first = Token("op", "[", token.start, token.start + 1)
        rest = Token("op", "[", token.start + 1, token.end)
        self.tokens[self.i] = rest
        return first

    @property
    def at_end(self) -> bool:
        return self.tokens[self.i].kind == "eof"

    def error(self, message: str) -> DuelSyntaxError:
        token = self.peek()
        return DuelSyntaxError(message, token.start, self.text)
