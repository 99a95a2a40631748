"""The lexer and parser against the recorded parse corpus, plus totality.

``tests/data/parse_corpus.jsonl`` was written by
``scripts/parse_corpus.py`` with the previous, tier-per-method parser:
the tokens and AST (or syntax error and caret) of every DUEL text in
the repo and of seeded mutations of them.  The table-driven parser must
reproduce every entry, except the inputs the old parser crashed on
(``FIXED``), which now parse or raise :class:`DuelSyntaxError`.
"""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import DuelSyntaxError
from repro.core.lexer import tokenize
from repro.core.parser import parse

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                      "data", "parse_corpus.jsonl")

#: Must match ``scripts/parse_corpus.py``.
TYPEDEFS = frozenset({"size_t", "myint", "byte", "nodep", "counter_t",
                      "matrix_t", "T"})
KIND_LETTERS = {"name": "N", "num": "I", "fnum": "F", "char": "C",
                "string": "S", "op": "O"}

_DEEP = "expression nested too deeply"

#: Inputs the old parser crashed on (ValueError from an octal or empty
#: hex constant, RecursionError from deep nesting), with their results
#: now.  Keyed by text; deep-nesting probes by their parenthesis depth.
FIXED = {
    "!09": {"error": "invalid octal constant '09'", "position": 1},
    "-03)": {"error": "unexpected ')' after expression", "position": 3},
    "0123456789abcde": {"error": "invalid octal constant '0123456789'",
                        "position": 0},
    "0123456789abcdef": {"error": "invalid octal constant '0123456789'",
                         "position": 0},
    "02d": {"error": "unexpected 'd' after expression", "position": 2},
    "03": {"sexpr": "(constant 3)"},
    "04d": {"error": "unexpected 'd' after expression", "position": 2},
    "a[0]=01": {"sexpr": '(assign (index (name "a") (constant 0))'
                         ' (constant 1))'},
    "hash[..64]-->next->scope >?05": {
        "sexpr": '(ifgt (witharrow (dfs (index (name "hash") (to prefix'
                 ' (constant 64))) (name "next")) (name "scope"))'
                 ' (constant 5))'},
    "x[..256] !=? 056] !=? 0": {
        "error": "unexpected ']' after expression", "position": 16},
    "x[0x[0] = 9": {"error": "invalid hexadecimal constant '0x'",
                    "position": 2},
    60: {"sexpr": "(constant 1)"},
    100: {"error": _DEEP, "position": 64},
    500: {"error": _DEEP, "position": 64},
}


def outcome(text, is_type_name=None) -> dict:
    try:
        return {"sexpr": parse(text, is_type_name).sexpr()}
    except DuelSyntaxError as error:
        return {"error": error.message.split("\n", 1)[0],
                "position": error.position}


def token_words(text):
    try:
        return " ".join(f"{KIND_LETTERS[t.kind]}{t.start}:{t.end}"
                        for t in tokenize(text) if t.kind != "eof")
    except DuelSyntaxError:
        return None


def fixed_key(text):
    depth = len(text) - len(text.lstrip("("))
    return depth if depth >= 60 else text


def load_corpus():
    with open(CORPUS, encoding="utf-8") as f:
        return [json.loads(line) for line in f]


ENTRIES = load_corpus()


def test_corpus_covers_the_repo_texts():
    texts = {entry["text"] for entry in ENTRIES}
    assert len(ENTRIES) > 4000
    for sample in ("(1..3)+(5,9)", "x[..100] >? 0", "argv[0..]@0",
                   "head-->next->value"):
        assert sample in texts


def test_every_entry_lexes_and_parses_as_recorded():
    mismatches = []
    for entry in ENTRIES:
        text = entry["text"]
        if "crash" in entry["plain"]:
            continue
        plain = entry["plain"]
        typed = entry.get("typed", plain)
        got = (token_words(text), outcome(text),
               outcome(text, TYPEDEFS.__contains__))
        if got != (entry["tokens"], plain, typed):
            mismatches.append((text, got))
    assert not mismatches, mismatches[:5]


def test_inputs_that_crashed_now_parse_or_raise_a_syntax_error():
    crashed = [entry for entry in ENTRIES if "crash" in entry["plain"]]
    assert {fixed_key(entry["text"]) for entry in crashed} == set(FIXED)
    for entry in crashed:
        text = entry["text"]
        assert outcome(text) == FIXED[fixed_key(text)], text


class TestIntegerConstants:
    def test_octal_is_octal(self):
        assert parse("010").value == 8
        assert parse("07L").value == 7
        assert parse("07L").type_hint == "long"

    def test_zero_keeps_its_spelling(self):
        assert parse("00").sexpr() == "(constant 00)"

    @pytest.mark.parametrize("text,caret", [
        ("08", 0), ("09", 0), ("x[0x]", 2), ("1 + 0xg", 4)])
    def test_malformed_literal_is_a_syntax_error(self, text, caret):
        with pytest.raises(DuelSyntaxError) as raised:
            parse(text)
        assert raised.value.position == caret


class TestEscapes:
    def test_octal_escape_stops_at_a_non_octal_digit(self):
        assert parse(r'"\08"').value == b"\x008"

    @pytest.mark.parametrize("text,value", [
        (r'"\8"', b"8"), (r'"\9"', b"9"), (r"'\8'", ord("8")),
        (r'"\101\x41"', b"AA"), (r'"\400"', b"\x00")])
    def test_escapes_follow_c(self, text, value):
        assert parse(text).value == value

    def test_a_string_past_latin_1_is_a_syntax_error(self):
        with pytest.raises(DuelSyntaxError,
                           match="outside Latin-1") as raised:
            parse('x + "ab\u20ac"')
        assert raised.value.position == 4

    @pytest.mark.parametrize("text", [r"'\x'", r'"a\x"', r'"\xg"'])
    def test_hex_escape_needs_a_digit(self, text):
        with pytest.raises(DuelSyntaxError) as raised:
            parse(text)
        assert raised.value.position == text.index("\\")
        assert "hex digits" in str(raised.value)


class TestNesting:
    @pytest.mark.parametrize("depth", [63, 62])
    def test_sixty_three_parentheses_parse(self, depth):
        assert parse("(" * depth + "x" + ")" * depth).sexpr() == '(name "x")'

    @pytest.mark.parametrize("text", [
        "(" * 500 + "1" + ")" * 500,
        "- " * 500 + "1",
        "a = " * 500 + "1",
        "1 ? " * 300 + "1" + " : 1" * 300,
        "x" + "[0" * 200 + "]" * 200,
        "if (1) " * 300 + "1",
    ])
    def test_deep_nesting_is_a_syntax_error(self, text):
        with pytest.raises(DuelSyntaxError, match="nested too deeply"):
            parse(text)

    def test_long_flat_chains_are_not_nesting(self):
        assert parse(" => ".join(["a"] * 2000)).op == "imply"
        assert parse(" ? 1 : ".join(["a"] * 2000)).op == "if"
        assert parse(" + ".join(["1"] * 2000)).op == "plus"


# -- totality ------------------------------------------------------------
_PIECES = ["0", "1", "07", "08", "0x", "0x1f", "1.5", "9e", "x", "_", "if",
           "else", "for", "while", "sizeof", "int", "struct", "frame",
           "'a'", "'\\", "\"s", "\\x", "\\8", "\"", "'", "\\"]
_OPERATORS = list("+-*/%<>=!~^&|()[]{},;:?@#.") + [
    "..", "-->", "-->>", "->", "[[", "]]", "==?", "<?", ">?/", "#/", ":=",
    "=>", "&&", "||", "++", "--", "<<=", " "]

duel_ish = st.lists(st.sampled_from(_PIECES + _OPERATORS),
                    max_size=40).map("".join)


@given(text=st.one_of(duel_ish, st.text(
    alphabet="".join(sorted(set("".join(_PIECES + _OPERATORS)))),
    max_size=60)))
@settings(max_examples=400, deadline=None)
def test_any_text_parses_or_is_a_syntax_error(text):
    try:
        parse(text)
    except DuelSyntaxError:
        pass


@given(depth=st.integers(1, 400), opener=st.sampled_from(
    ["(", "[", "{", "- ", "! ", "*", "#/", "(int)", "a = ", "1 ? ",
     "if (1) ", "f("]))
@settings(max_examples=60, deadline=None)
def test_nesting_of_any_depth_is_total(depth, opener):
    try:
        parse(opener * depth + "1")
    except DuelSyntaxError:
        pass
