"""Prepared statement shapes against the parse corpus.

Whichever way ``DuelSession.prepare`` gets a text's entry — the exact
text table, its statement shape's template, or a fresh compile — the
AST, or the syntax error and its caret, is ``DuelSession.compile``'s.
Every text of ``tests/data/parse_corpus.jsonl`` runs, in order, through
one session, each followed by seeded variants: every literal
respelled with another value of its kind, and with a value of another
kind, twice each (malformed spellings included, so instantiation falls
back to the parser's error).
"""

import json
import os
import random

import pytest

from repro import DuelSession, SimulatorBackend, TargetProgram
from repro.core.errors import DuelSyntaxError
from repro.core.lexer import LITERAL_KINDS, tokenize
from repro.ctype.types import INT

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                      "data", "parse_corpus.jsonl")

#: The corpus's typedef names (``scripts/parse_corpus.py``), so its
#: casts and declarations take the source-slice path.
TYPEDEFS = ("size_t", "myint", "byte", "nodep", "counter_t", "matrix_t",
            "T")

#: Respellings of each literal kind, malformed ones included.
SPELLINGS = {
    "num": ("0", "7", "42", "00", "010", "09", "0x1f", "0x", "3u", "5L",
            "4294967296"),
    "fnum": ("1.5", "2.", ".5", "1e3", "2.5e-2"),
    "char": ("'a'", "'\\n'", "'\\x41'", "'\\0'", "'\"'"),
    "string": ('"s"', '""', '"a\\tb"', '"x\\"y"'),
}


def variants(text: str, rng: random.Random) -> list:
    """``text`` with every literal respelled: twice keeping its kind,
    then twice changing it."""
    try:
        literals = [token for token in tokenize(text)
                    if token.kind in LITERAL_KINDS]
    except DuelSyntaxError:
        return []
    if not literals:
        return []
    out = []
    for change_kind in (False, False, True, True):
        pieces, last = [], 0
        for token in literals:
            kind = token.kind
            if change_kind:
                kind = rng.choice(sorted(LITERAL_KINDS - {kind}))
            pieces += [text[last:token.start], rng.choice(SPELLINGS[kind])]
            last = token.end
        out.append("".join(pieces) + text[last:])
    return out


def outcome(parse, text):
    try:
        return parse(text)
    except DuelSyntaxError as error:
        return ("error", str(error), error.position)


def test_every_prepared_text_is_what_compile_makes():
    program = TargetProgram()
    for name in TYPEDEFS:
        program.types.add_typedef(name, INT)
    session = DuelSession(SimulatorBackend(program))
    compile_ = session.compile
    compiled = []

    def counting(text, *stream):
        compiled.append(text)
        return compile_(text, *stream)

    session.compile = counting
    rng = random.Random(21)
    with open(CORPUS, encoding="utf-8") as corpus:
        texts = [json.loads(line)["text"] for line in corpus]
    texts += ["x[..4]@3", 'x[..4]@"s"', "x[..4]@'s'", "x[..4]@3.5"]
    seen, checks, instantiated, mismatches = set(), 0, 0, []
    for text in texts:
        for probe in [text] + variants(text, rng):
            before = len(compiled)
            got = outcome(lambda t: session.prepare(t).node, probe)
            if len(compiled) == before and probe not in seen:
                instantiated += 1
            seen.add(probe)
            checks += 1
            if got != outcome(compile_, probe):
                mismatches.append(probe)
    assert mismatches == []
    assert checks > 10_000
    assert instantiated > 1_500
    with pytest.raises(DuelSyntaxError, match="after @"):
        session.prepare('x[..4]@"s"')
