#!/usr/bin/env python
"""Record how the DUEL lexer and parser treat every DUEL text in the repo.

Usage (from the root of a checkout)::

    PYTHONPATH=src python scripts/parse_corpus.py [OUTPUT]

OUTPUT defaults to ``tests/data/parse_corpus.jsonl``.  The texts are
every single-line string literal in ``tests/`` and ``examples/``, the
``duel>`` lines of ``docs/`` and ``README.md``, a few nesting-depth
probes, and seeded single-edit mutations of all of these (so error
messages and carets are pinned too).  Each text is lexed and parsed
twice: with no typedef names, and with :data:`TYPEDEFS` known as type
names (``(T)x`` is a cast only when ``T`` is one).

One JSON object per line:

``text``
    the input;
``tokens``
    one ``<kind letter><start>:<end>`` word per token (EOF excluded;
    letters in :data:`KIND_LETTERS`), or ``null`` when the lexer
    rejects the text;
``plain`` / ``typed``
    the parse without / with :data:`TYPEDEFS`: ``{"sexpr": ...}``,
    ``{"error": message, "position": caret}`` for a
    ``DuelSyntaxError`` (message without the echoed text and caret),
    or ``{"crash": exception type}`` for any other exception.
    ``typed`` is omitted when it equals ``plain``.

``tests/unit/core/test_parse_corpus.py`` checks the current lexer and
parser against every entry; a ``crash`` entry must be listed there
with its present-day result.  Regenerate the file only with a parser
whose behaviour is the reference.
"""

from __future__ import annotations

import ast
import json
import os
import random
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.core.errors import DuelSyntaxError  # noqa: E402
from repro.core.lexer import tokenize  # noqa: E402
from repro.core.parser import parse  # noqa: E402

#: Names treated as typedef names in the ``typed`` parse.
TYPEDEFS = frozenset({"size_t", "myint", "byte", "nodep", "counter_t",
                      "matrix_t", "T"})

#: Characters a mutation may insert: DUEL's token alphabet.
ALPHABET = ("abcxyz_019AZ" "+-*/%<>=!~^&|()[]{},;:?@#.'\"\\ ")

#: One letter per token kind, for the compact ``tokens`` field.
KIND_LETTERS = {"name": "N", "num": "I", "fnum": "F", "char": "C",
                "string": "S", "op": "O"}

MUTATIONS = 2000
SEED = 20261017
MAX_LEN = 120

_DUEL_LINE = re.compile(r"^\s*duel>\s?(.*)$")


def literal_texts(root: str) -> set[str]:
    """Every single-line string constant in the Python files under root."""
    found: set[str] = set()
    for folder, _, files in os.walk(root):
        for name in files:
            if not name.endswith(".py"):
                continue
            with open(os.path.join(folder, name), encoding="utf-8") as f:
                tree = ast.parse(f.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant) \
                        and isinstance(node.value, str):
                    text = node.value
                    if text.strip() and "\n" not in text \
                            and len(text) <= MAX_LEN:
                        found.add(text)
    return found


def doc_texts(paths: list[str]) -> set[str]:
    """The query of every ``duel>`` line in the given Markdown files."""
    found: set[str] = set()
    for path in paths:
        with open(path, encoding="utf-8") as f:
            for line in f:
                match = _DUEL_LINE.match(line.rstrip("\n"))
                if match and match.group(1).strip():
                    found.add(match.group(1))
    return found


def nesting_probes() -> set[str]:
    probes = set()
    for depth in (10, 40, 60, 100, 500):
        probes.add("(" * depth + "1" + ")" * depth)
    probes.add("- " * 30 + "1")
    probes.add("x" + "[0" * 20 + "]" * 20)
    return probes


def mutate(rng: random.Random, text: str) -> str:
    i = rng.randrange(len(text) + 1)
    kind = rng.randrange(4)
    if kind == 0 and text:                           # delete
        i = min(i, len(text) - 1)
        return text[:i] + text[i + 1:]
    if kind == 1:                                    # insert
        return text[:i] + rng.choice(ALPHABET) + text[i:]
    if kind == 2 and text:                           # replace
        i = min(i, len(text) - 1)
        return text[:i] + rng.choice(ALPHABET) + text[i + 1:]
    j = rng.randrange(len(text) + 1)                 # duplicate a span
    lo, hi = min(i, j), max(i, j)
    return text[:hi] + text[lo:hi] + text[hi:]


def outcome(text: str, is_type_name=None) -> dict:
    try:
        return {"sexpr": parse(text, is_type_name).sexpr()}
    except DuelSyntaxError as error:
        return {"error": error.message.split("\n", 1)[0],
                "position": error.position}
    except Exception as error:       # recorded: a satellite fixes these
        return {"crash": type(error).__name__}


def entry(text: str) -> dict:
    try:
        tokens = " ".join(f"{KIND_LETTERS[t.kind]}{t.start}:{t.end}"
                          for t in tokenize(text) if t.kind != "eof")
    except DuelSyntaxError:
        tokens = None
    record = {"text": text, "tokens": tokens, "plain": outcome(text)}
    typed = outcome(text, TYPEDEFS.__contains__)
    if typed != record["plain"]:
        record["typed"] = typed
    return record


def main(argv: list[str]) -> int:
    out_path = argv[0] if argv else os.path.join(
        ROOT, "tests", "data", "parse_corpus.jsonl")
    docs = os.path.join(ROOT, "docs")
    markdown = [os.path.join(docs, n) for n in sorted(os.listdir(docs))
                if n.endswith(".md")] + [os.path.join(ROOT, "README.md")]
    seeds = (literal_texts(os.path.join(ROOT, "tests"))
             | literal_texts(os.path.join(ROOT, "examples"))
             | doc_texts(markdown) | nesting_probes())
    rng = random.Random(SEED)
    pool = sorted(text for text in seeds if len(text) <= 80)
    texts = set(seeds)
    while len(texts) < len(seeds) + MUTATIONS:
        texts.add(mutate(rng, rng.choice(pool)))
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as out:
        for text in sorted(texts):
            out.write(json.dumps(entry(text), ensure_ascii=False) + "\n")
    print(f"{len(texts)} texts ({len(seeds)} harvested) -> {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
