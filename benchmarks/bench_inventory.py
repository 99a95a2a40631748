"""P5 — the paper's implementation-size table, regenerated for this
reproduction.

Paper §Implementation gives the original's C line counts:

    duel_eval + associated functions       ~400
    search stacks, aliases, etc.           ~300
    operator application / Value           ~1200
    debugger interface module              ~400
      (30 command + 100 type conversion + 100 symbol table
       + 70 target access + 100 misc)

This "benchmark" computes the equivalent inventory of the Python
reproduction and prints both side by side.  (Timed trivially so it
slots into the same pytest-benchmark run.)
"""

from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: paper component -> (paper C lines, our modules)
MAPPING = {
    "evaluator (duel_eval)": (400, ["core/eval.py", "core/statemachine.py"]),
    "stacks/aliases/etc.": (300, ["core/scope.py", "core/symbolic.py",
                                  "core/values.py"]),
    "operator application": (1200, ["core/ops.py", "ctype/convert.py",
                                    "ctype/encode.py"]),
    "debugger interface": (400, ["target/interface.py",
                                 "target/gdbadapter.py"]),
    "parser + lexer": (None, ["core/parser.py", "core/lexer.py",
                              "core/nodes.py"]),
    "display": (None, ["core/format.py", "core/session.py"]),
    "beyond the paper": (None, ["debugger/debugger.py",
                                "target/snapshot.py", "cli.py"]),
}


def count_loc(relpath: str) -> int:
    """Non-blank, non-comment-only source lines."""
    total = 0
    for line in (SRC / relpath).read_text().splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            total += 1
    return total


def build_inventory():
    rows = []
    for component, (paper_lines, modules) in MAPPING.items():
        ours = sum(count_loc(m) for m in modules)
        rows.append({"component": component, "paper_c": paper_lines,
                     "ours_py": ours, "modules": modules})
    return rows


def test_inventory_table(capsys):
    rows = build_inventory()
    with capsys.disabled():
        print()
        print("P5 implementation inventory (paper C lines vs this repo)")
        print(f"{'component':<26}{'paper C':>9}{'ours py':>9}  modules")
        for row in rows:
            paper = row["paper_c"] if row["paper_c"] else "-"
            print(f"{row['component']:<26}{paper:>9}{row['ours_py']:>9}"
                  f"  {', '.join(row['modules'])}")
    # The reproduction should be the same order of magnitude as the
    # original per component (Python is denser than C).
    for row in rows:
        if row["paper_c"]:
            assert row["ours_py"] < row["paper_c"] * 3


@pytest.mark.benchmark(group="P5-inventory")
def test_inventory_benchmark(benchmark):
    rows = benchmark(build_inventory)
    assert len(rows) == len(MAPPING)
