"""Parser for C declaration syntax.

Turns declaration strings such as

    struct symbol { char *name; int scope; struct symbol *next; } *hash[1024];

into :class:`~repro.ctype.types.CType` objects plus declared names.
Used by the target-program builder (to declare globals), by DUEL's
``duel int i;`` debugger declarations, and by cast expressions
(``(struct symbol *)p``).

The grammar covers the declaration subset needed for debugging real C
programs: all primitive specifiers, struct/union/enum definitions and
references (including self-referential pointers), typedefs, pointers,
arrays (with constant-expression sizes), bit-fields, and function
declarators (for prototypes).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Optional

from repro.ctype.layout import MemberDecl, complete_struct, complete_union
from repro.ctype.types import (
    ArrayType,
    BOOL,
    CHAR,
    CType,
    DOUBLE,
    EnumType,
    FLOAT,
    FunctionType,
    INT,
    LDOUBLE,
    LLONG,
    LONG,
    PointerType,
    SCHAR,
    SHORT,
    StructType,
    TypedefType,
    UCHAR,
    UINT,
    ULLONG,
    ULONG,
    UnionType,
    USHORT,
    VOID,
)


class DeclError(SyntaxError):
    """Raised on malformed declarations."""


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|//[^\n]*|/\*.*?\*/)
  | (?P<num>0[xX][0-9a-fA-F]+|\d+)
  | (?P<name>[A-Za-z_]\w*)
  | (?P<punct><<|>>|\.\.\.|[-+*/%&|^~!<>=(){}\[\];:,.?])
""", re.VERBOSE | re.DOTALL)

_SPECIFIER_WORDS = frozenset(
    "void char short int long signed unsigned float double _Bool "
    "struct union enum const volatile typedef static extern register "
    "auto".split()
)

_BASE_COMBOS: dict[tuple[str, ...], CType] = {
    ("void",): VOID,
    ("_Bool",): BOOL,
    ("char",): CHAR,
    ("char", "signed"): SCHAR,
    ("char", "unsigned"): UCHAR,
    ("short",): SHORT,
    ("short", "signed"): SHORT,
    ("int", "short"): SHORT,
    ("int", "short", "signed"): SHORT,
    ("short", "unsigned"): USHORT,
    ("int", "short", "unsigned"): USHORT,
    ("int",): INT,
    ("signed",): INT,
    ("int", "signed"): INT,
    ("unsigned",): UINT,
    ("int", "unsigned"): UINT,
    ("long",): LONG,
    ("long", "signed"): LONG,
    ("int", "long"): LONG,
    ("int", "long", "signed"): LONG,
    ("long", "unsigned"): ULONG,
    ("int", "long", "unsigned"): ULONG,
    ("long", "long"): LLONG,
    ("long", "long", "signed"): LLONG,
    ("int", "long", "long"): LLONG,
    ("int", "long", "long", "signed"): LLONG,
    ("long", "long", "unsigned"): ULLONG,
    ("int", "long", "long", "unsigned"): ULLONG,
    ("float",): FLOAT,
    ("double",): DOUBLE,
    ("double", "long"): LDOUBLE,
}


class TypeEnv:
    """Registry of struct/union/enum tags and typedef names.

    A target program owns one of these; nested scopes are not needed for
    declarations at debugger level (C file scope suffices).
    """

    def __init__(self) -> None:
        self.structs: dict[str, StructType] = {}
        self.unions: dict[str, UnionType] = {}
        self.enums: dict[str, EnumType] = {}
        self.typedefs: dict[str, TypedefType] = {}
        self.enum_constants: dict[str, tuple[int, EnumType]] = {}
        #: Moves whenever the set of typedef names changes.  A DUEL
        #: parse asks ``is_type_name`` whether ``(T)x`` is a cast, so a
        #: cache of parses keys its entries on this.
        self.typedef_generation = 0

    def struct_tag(self, tag: str) -> StructType:
        """Fetch or forward-declare ``struct tag``."""
        if tag not in self.structs:
            self.structs[tag] = StructType(tag)
        return self.structs[tag]

    def union_tag(self, tag: str) -> UnionType:
        if tag not in self.unions:
            self.unions[tag] = UnionType(tag)
        return self.unions[tag]

    def enum_tag(self, tag: str) -> EnumType:
        if tag not in self.enums:
            self.enums[tag] = EnumType(tag)
        return self.enums[tag]

    def add_typedef(self, name: str, target: CType) -> TypedefType:
        td = TypedefType(name, target)
        self.typedefs[name] = td
        self.typedef_generation += 1
        return td

    def restore_typedefs(self, typedefs: dict) -> None:
        """Make ``typedefs`` the typedef table (a snapshot restore);
        a table that did not change is left alone."""
        current = self.typedefs
        if current.keys() == typedefs.keys() and all(
                current[name] is td for name, td in typedefs.items()):
            return
        current.clear()
        current.update(typedefs)
        self.typedef_generation += 1

    def is_type_name(self, name: str) -> bool:
        return name in self.typedefs

    def register_enumerators(self, enum: EnumType) -> None:
        for name, value in enum.enumerators.items():
            self.enum_constants[name] = (value, enum)


@dataclass
class Declaration:
    """One declared name with its resolved type."""

    name: str
    ctype: CType
    is_typedef: bool = False


class _Tokens:
    """Tiny token cursor over a declaration string."""

    def __init__(self, text: str):
        self.toks: list[tuple[str, str]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m:
                raise DeclError(f"bad character {text[pos]!r} in declaration")
            pos = m.end()
            if m.lastgroup == "ws":
                continue
            self.toks.append((m.lastgroup, m.group()))
        self.i = 0

    def peek(self) -> tuple[str, str]:
        if self.i < len(self.toks):
            return self.toks[self.i]
        return ("eof", "")

    def next(self) -> tuple[str, str]:
        tok = self.peek()
        self.i += 1
        return tok

    def accept(self, text: str) -> bool:
        if self.peek()[1] == text:
            self.i += 1
            return True
        return False

    def expect(self, text: str) -> None:
        kind, tok = self.next()
        if tok != text:
            raise DeclError(f"expected {text!r}, found {tok or 'end of input'!r}")

    @property
    def at_end(self) -> bool:
        return self.i >= len(self.toks)


class DeclParser:
    """Parses one or more C declarations against a :class:`TypeEnv`."""

    def __init__(self, env: Optional[TypeEnv] = None):
        self.env = env if env is not None else TypeEnv()

    # -- public API ---------------------------------------------------
    def parse(self, text: str) -> list[Declaration]:
        """Parse semicolon-separated declarations; returns all names."""
        toks = _Tokens(text)
        decls: list[Declaration] = []
        while not toks.at_end:
            decls.extend(self._declaration(toks))
        return decls

    def parse_type(self, text: str) -> CType:
        """Parse an abstract type name (as in a cast), e.g. ``int *[3]``."""
        toks = _Tokens(text)
        base = self._specifiers(toks)
        name, ctype = self._declarator(toks, base, abstract=True)
        if name:
            raise DeclError(f"unexpected identifier {name!r} in type name")
        if not toks.at_end:
            raise DeclError(f"trailing tokens after type name: {toks.peek()[1]!r}")
        return ctype

    # -- declarations --------------------------------------------------
    def _declaration(self, toks: _Tokens) -> list[Declaration]:
        is_typedef = False
        # storage-class keywords are accepted and ignored (typedef acts).
        while toks.peek()[1] in ("typedef", "static", "extern", "register", "auto"):
            if toks.next()[1] == "typedef":
                is_typedef = True
        base = self._specifiers(toks)
        decls: list[Declaration] = []
        if toks.accept(";"):
            return decls  # bare "struct s {...};" defines the tag only
        while True:
            name, ctype = self._declarator(toks, base, abstract=False)
            if not name:
                raise DeclError("declaration is missing a name")
            if is_typedef:
                self.env.add_typedef(name, ctype)
                decls.append(Declaration(name, self.env.typedefs[name], True))
            else:
                decls.append(Declaration(name, ctype))
            if toks.accept(","):
                continue
            toks.expect(";")
            break
        return decls

    # -- specifiers ----------------------------------------------------
    def _specifiers(self, toks: _Tokens) -> CType:
        words: list[str] = []
        record: Optional[CType] = None
        while True:
            kind, tok = toks.peek()
            if tok in ("const", "volatile"):
                toks.next()
                continue
            if tok == "struct" or tok == "union":
                toks.next()
                record = self._record(toks, tok)
                continue
            if tok == "enum":
                toks.next()
                record = self._enum(toks)
                continue
            if tok in _SPECIFIER_WORDS and tok not in (
                    "typedef", "static", "extern", "register", "auto"):
                words.append(toks.next()[1])
                continue
            if (kind == "name" and self.env.is_type_name(tok)
                    and not words and record is None):
                toks.next()
                return self.env.typedefs[tok]
            break
        if record is not None:
            if words:
                raise DeclError("cannot mix record and primitive specifiers")
            return record
        if not words:
            raise DeclError(f"expected type specifier, found {toks.peek()[1]!r}")
        combo = tuple(sorted(words))
        if combo not in _BASE_COMBOS:
            raise DeclError(f"invalid type specifier combination {' '.join(words)!r}")
        return _BASE_COMBOS[combo]

    def _record(self, toks: _Tokens, keyword: str) -> CType:
        tag = None
        if toks.peek()[0] == "name":
            tag = toks.next()[1]
        if keyword == "struct":
            record = self.env.struct_tag(tag) if tag else StructType(None)
        else:
            record = self.env.union_tag(tag) if tag else UnionType(None)
        if toks.accept("{"):
            members: list[MemberDecl] = []
            while not toks.accept("}"):
                members.extend(self._member(toks))
            if keyword == "struct":
                complete_struct(record, members)
            else:
                complete_union(record, members)
        return record

    def _member(self, toks: _Tokens) -> list[MemberDecl]:
        base = self._specifiers(toks)
        members: list[MemberDecl] = []
        if toks.accept(";"):
            # Anonymous struct/union member.
            members.append(MemberDecl(name="", ctype=base))
            return members
        while True:
            if toks.peek()[1] == ":":  # unnamed bit-field
                toks.next()
                width = self._const_expr(toks)
                members.append(MemberDecl(name="", ctype=base, bit_width=width))
            else:
                name, ctype = self._declarator(toks, base, abstract=False)
                if not name:
                    raise DeclError("struct member is missing a name")
                width = None
                if toks.accept(":"):
                    width = self._const_expr(toks)
                members.append(MemberDecl(name=name, ctype=ctype, bit_width=width))
            if toks.accept(","):
                continue
            toks.expect(";")
            break
        return members

    def _enum(self, toks: _Tokens) -> EnumType:
        tag = None
        if toks.peek()[0] == "name":
            tag = toks.next()[1]
        enum = self.env.enum_tag(tag) if tag else EnumType(None)
        if toks.accept("{"):
            value = 0
            while not toks.accept("}"):
                kind, name = toks.next()
                if kind != "name":
                    raise DeclError(f"expected enumerator name, found {name!r}")
                if toks.accept("="):
                    value = self._const_expr(toks)
                enum.enumerators[name] = value
                value += 1
                if not toks.accept(","):
                    toks.expect("}")
                    break
            self.env.register_enumerators(enum)
        return enum

    # -- declarators ----------------------------------------------------
    def _declarator(self, toks: _Tokens, base: CType,
                    abstract: bool) -> tuple[str, CType]:
        """Parse a (possibly abstract) declarator.

        Uses the standard two-pass trick: collect pointer prefixes, then
        the direct declarator, then apply array/function suffixes from
        the inside out.
        """
        while toks.accept("*"):
            while toks.peek()[1] in ("const", "volatile"):
                toks.next()
            base = PointerType(base)
        name = ""
        inner: Optional[Callable[[CType], tuple[str, CType]]] = None
        kind, tok = toks.peek()
        if tok == "(" and self._is_nested_declarator(toks):
            toks.next()
            saved = toks.i
            # Parse the nested declarator later, against the suffixed base.
            depth = 1
            while depth:
                t = toks.next()[1]
                if t == "(":
                    depth += 1
                elif t == ")":
                    depth -= 1
                elif t == "":
                    raise DeclError("unterminated ( in declarator")
            end = toks.i - 1

            def inner(ct: CType, start=saved, stop=end) -> tuple[str, CType]:
                sub = _Tokens("")
                sub.toks = toks.toks[start:stop]
                n, t2 = self._declarator(sub, ct, abstract)
                if not sub.at_end:
                    raise DeclError("trailing tokens in nested declarator")
                return n, t2
        elif kind == "name" and tok not in _SPECIFIER_WORDS:
            if self.env.is_type_name(tok) and abstract:
                pass  # a typedef name here belongs to an outer context
            else:
                name = toks.next()[1]
        # Suffixes: arrays and function parameter lists.
        suffixes: list[tuple[str, object]] = []
        while True:
            if toks.accept("["):
                if toks.accept("]"):
                    suffixes.append(("array", None))
                else:
                    length = self._const_expr(toks)
                    toks.expect("]")
                    suffixes.append(("array", length))
            elif toks.peek()[1] == "(" and inner is None and (name or abstract):
                toks.next()
                params, varargs = self._params(toks)
                suffixes.append(("func", (params, varargs)))
            elif toks.peek()[1] == "(" and inner is not None:
                toks.next()
                params, varargs = self._params(toks)
                suffixes.append(("func", (params, varargs)))
            else:
                break
        ctype = base
        for tag, payload in reversed(suffixes):
            if tag == "array":
                ctype = ArrayType(ctype, payload)  # type: ignore[arg-type]
            else:
                params, varargs = payload  # type: ignore[misc]
                ctype = FunctionType(ctype, tuple(params), varargs)
        if inner is not None:
            return inner(ctype)
        return name, ctype

    def _is_nested_declarator(self, toks: _Tokens) -> bool:
        """Disambiguate ``(`` starting a nested declarator vs a prototype."""
        nxt = toks.toks[toks.i + 1][1] if toks.i + 1 < len(toks.toks) else ""
        if nxt == "*" or nxt == "(":
            return True
        if nxt == ")":
            return False
        kindn = toks.toks[toks.i + 1][0] if toks.i + 1 < len(toks.toks) else "eof"
        if kindn == "name" and nxt not in _SPECIFIER_WORDS and not self.env.is_type_name(nxt):
            return True
        return False

    def _params(self, toks: _Tokens) -> tuple[list[CType], bool]:
        params: list[CType] = []
        varargs = False
        if toks.accept(")"):
            return params, varargs
        while True:
            if toks.accept("..."):
                varargs = True
                toks.expect(")")
                break
            base = self._specifiers(toks)
            _, ctype = self._declarator(toks, base, abstract=True)
            if ctype.is_void and not ctype.is_pointer:
                pass  # (void) parameter list
            else:
                if ctype.is_array:
                    ctype = ctype.strip_typedefs().decay()  # type: ignore[union-attr]
                params.append(ctype)
            if toks.accept(","):
                continue
            toks.expect(")")
            break
        return params, varargs

    # -- constant expressions -------------------------------------------
    def _const_expr(self, toks: _Tokens) -> int:
        return self._const_add(toks)

    def _const_add(self, toks: _Tokens) -> int:
        value = self._const_mul(toks)
        while toks.peek()[1] in ("+", "-"):
            op = toks.next()[1]
            rhs = self._const_mul(toks)
            value = value + rhs if op == "+" else value - rhs
        return value

    def _const_mul(self, toks: _Tokens) -> int:
        value = self._const_shift(toks)
        while toks.peek()[1] in ("*", "/", "%"):
            op = toks.next()[1]
            rhs = self._const_shift(toks)
            if op == "*":
                value *= rhs
            elif op == "/":
                value = int(value / rhs)
            else:
                value %= rhs
        return value

    def _const_shift(self, toks: _Tokens) -> int:
        value = self._const_primary(toks)
        while toks.peek()[1] in ("<<", ">>"):
            op = toks.next()[1]
            rhs = self._const_primary(toks)
            value = value << rhs if op == "<<" else value >> rhs
        return value

    def _const_primary(self, toks: _Tokens) -> int:
        kind, tok = toks.next()
        if kind == "num":
            return int(tok, 0)
        if tok == "-":
            return -self._const_primary(toks)
        if tok == "(":
            value = self._const_expr(toks)
            toks.expect(")")
            return value
        if kind == "name" and tok in self.env.enum_constants:
            return self.env.enum_constants[tok][0]
        raise DeclError(f"expected constant expression, found {tok!r}")


def parse_type(text: str, env: Optional[TypeEnv] = None) -> CType:
    """Module-level convenience for :meth:`DeclParser.parse_type`."""
    return DeclParser(env).parse_type(text)

