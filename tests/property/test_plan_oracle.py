"""Differential property test: operator plans vs a C oracle and mini-C.

``Apply`` decides each operator's C conversions once per operand-type
pair and keeps the decision as a plan.  Here random operands of every
C arithmetic type (plus an enum, a typedef'd int, a bit-field and
pointers) meet every binary operator, and three answers must agree:

* a Python model of LP64 C (the usual arithmetic conversions,
  two's-complement wrap, truncating division, and DUEL's shift count
  taken modulo 64), in the style of ``test_minic_oracle.py``;
* the mini-C interpreter, which computes the same expressions inside
  the target program that DUEL then inspects;
* DUEL itself, asked each expression twice (the first sight of a pair
  checks the types and builds the plan, the second finds it kept) and
  asked mixed-type sequences in one node, so a plan kept for one pair
  of types must never answer for another ("stale plans").
"""

import operator

from hypothesis import assume, given, settings, strategies as st

from repro import DuelSession, SimulatorBackend
from repro.core.errors import DuelError
from repro.minic import run_program

# -- the oracle ----------------------------------------------------------

#: C type -> (bits, signed, rank) on LP64.
INTS = {
    "char": (8, True, 1), "unsigned char": (8, False, 1),
    "short": (16, True, 2),
    "int": (32, True, 3), "unsigned": (32, False, 3),
    "long": (64, True, 4), "unsigned long": (64, False, 4),
}
#: Operand -> (C type it converts as, strategy for its value).
VARIABLES = {
    "c": ("char", st.integers(-128, 127)),
    "uc": ("unsigned char", st.integers(0, 255)),
    "s": ("short", st.integers(-2 ** 15, 2 ** 15 - 1)),
    "i": ("int", st.integers(-2 ** 31, 2 ** 31 - 1)),
    "u": ("unsigned", st.integers(0, 2 ** 32 - 1)),
    "l": ("long", st.integers(-2 ** 63, 2 ** 63 - 1)),
    "ul": ("unsigned long", st.integers(0, 2 ** 64 - 1)),
    "d": ("double", st.integers(-10 ** 6, 10 ** 6).map(lambda n: n / 4)),
    "e": ("int", st.sampled_from([0, 5, -3])),        # enum color
    "t": ("int", st.integers(-2 ** 31, 2 ** 31 - 1)),  # typedef int myint
    "bf.sb": ("int", st.integers(-16, 15)),            # int sb : 5
}
ENUMERATORS = {0: "RED", 5: "GREEN", -3: "BLUE"}
COMPARISONS = {"<": operator.lt, ">": operator.gt, "<=": operator.le,
               ">=": operator.ge, "==": operator.eq, "!=": operator.ne}
ARITHMETIC = ("+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^")


def wrap(value, ctype):
    bits, signed, _ = INTS[ctype]
    value &= (1 << bits) - 1
    if signed and value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


def common_type(ta, tb):
    """C11 6.3.1.8 on LP64, the types above only."""
    if "double" in (ta, tb):
        return "double"
    a, b = (t if INTS[t][2] >= INTS["int"][2] else "int" for t in (ta, tb))
    if a == b:
        return a
    if INTS[a][1] == INTS[b][1]:
        return a if INTS[a][2] > INTS[b][2] else b
    unsigned, signed = (a, b) if not INTS[a][1] else (b, a)
    if INTS[unsigned][2] >= INTS[signed][2]:
        return unsigned
    if INTS[signed][0] > INTS[unsigned][0]:
        return signed
    return {"int": "unsigned", "long": "unsigned long"}[signed]


def c_div(x, y):
    q = abs(x) // abs(y)
    return q if (x >= 0) == (y >= 0) else -q


def expect(op, ta, x, tb, y):
    """``("value", v, result type)`` or ``("error", text)``."""
    ctype = common_type(ta, tb)
    if op in COMPARISONS:
        if ctype == "double":
            x, y = float(x), float(y)
        else:
            x, y = wrap(x, ctype), wrap(y, ctype)
        return "value", int(COMPARISONS[op](x, y)), "int"
    if ctype == "double":
        if op not in ("+", "-", "*", "/"):
            return "error", f"floating operand to {op!r}"
        x, y = float(x), float(y)
        result = {"+": x + y, "-": x - y, "*": x * y}.get(op)
        return "value", result if result is not None else x / y, "double"
    x, y = wrap(x, ctype), wrap(y, ctype)
    if op in ("/", "%") and y == 0:
        return "error", "division by zero"
    result = {
        "+": lambda: x + y, "-": lambda: x - y, "*": lambda: x * y,
        "/": lambda: c_div(x, y), "%": lambda: x - c_div(x, y) * y,
        "<<": lambda: x << (y & 63), ">>": lambda: x >> (y & 63),
        "&": lambda: x & y, "|": lambda: x | y, "^": lambda: x ^ y,
    }[op]()
    return "value", wrap(result, ctype), ctype


# -- the target ----------------------------------------------------------

PROLOGUE = """
enum color { RED, GREEN = 5, BLUE = -3 };
typedef int myint;
struct bits { int sb : 5; unsigned ub : 3; };
char c; unsigned char uc; short s; int i; unsigned u; long l;
unsigned long ul; double d; enum color e; myint t; struct bits bf;
int arr[8]; short sh[4]; int *p; int *q;
"""


def c_literal(value):
    if isinstance(value, float):
        return repr(value) if value >= 0 else f"(- {-value!r})"
    return str(value) if value >= 0 else f"(- {-value})"


def build(values, pi, qi, checks):
    """Run the mini-C program that sets every operand and computes each
    of ``checks`` — ``(expression, result type)`` — into ``r<k>``."""
    decls = "".join(f"{ctype} r{k};"
                    for k, (_text, ctype) in enumerate(checks))
    sets = []
    for name, value in values.items():
        if name == "e":
            sets.append(f"e = {ENUMERATORS[value]};")
        else:
            sets.append(f"{name} = {c_literal(value)};")
    sets += [f"arr[{k}] = {10 * k - 35};" for k in range(8)]
    sets += [f"sh[{k}] = {c_literal(-1000 * k - 7)};" for k in range(4)]
    sets += [f"p = &arr[{pi}];", f"q = &arr[{qi}];"]
    sets += [f"r{k} = ({text});" for k, (text, _t) in enumerate(checks)]
    source = (PROLOGUE + decls + "int main(void) { " + " ".join(sets)
              + " return 0; }")
    program = run_program(source).program
    return program, DuelSession(SimulatorBackend(program))


def duel(session, text):
    try:
        return "value", session.eval_values(text)
    except DuelError as error:
        return "error", str(error)


operands = st.sampled_from(sorted(VARIABLES) + ["5", "(-3)", "70"])
operators = st.sampled_from(sorted(COMPARISONS) + list(ARITHMETIC))


def type_and_value(name, values):
    if name in VARIABLES:
        return VARIABLES[name][0], values[name]
    return "int", int(name.strip("()"))


@st.composite
def scenarios(draw):
    values = {name: draw(strategy)
              for name, (_t, strategy) in VARIABLES.items()}
    pairs = draw(st.lists(st.tuples(operands, operators, operands),
                          min_size=1, max_size=10))
    return values, pairs


@settings(deadline=None, max_examples=60)
@given(scenario=scenarios())
def test_binary_operators_match_oracle_and_minic(scenario):
    values, pairs = scenario
    expected = []
    for a, op, b in pairs:
        ta, x = type_and_value(a, values)
        tb, y = type_and_value(b, values)
        if op == "/" and common_type(ta, tb) == "double":
            assume(float(y) != 0.0)
        expected.append(expect(op, ta, x, tb, y))
    checks = [(f"{a} {op} {b}", want[2])
              for (a, op, b), want in zip(pairs, expected)
              if want[0] == "value"]
    program, session = build(values, 2, 5, checks)
    assert session.eval_values("c, uc, s, i, u, l, ul, d, e, t, bf.sb") == [
        values[n] for n in ("c", "uc", "s", "i", "u", "l", "ul", "d", "e",
                            "t", "bf.sb")]

    k = 0
    for (a, op, b), want in zip(pairs, expected):
        text = f"{a} {op} {b}"
        for _sight in ("built", "kept"):
            got = duel(session, text)
            if want[0] == "value":
                assert got == ("value", [want[1]]), text
            else:
                assert got[0] == "error" and want[1] in got[1], text
        if want[0] == "value":      # mini-C computed it into r<k>
            assert session.eval_values(f"r{k}") == [want[1]], text
            k += 1


@settings(deadline=None, max_examples=60)
@given(scenario=scenarios(), op=st.sampled_from(sorted(COMPARISONS)),
       bound=operands)
def test_one_filter_node_over_mixed_operand_types(scenario, op, bound):
    """``(a1, a2, ...) op? b`` and an alias rebound to each ai in turn:
    one CompareYield node meets a new pair of types on most values."""
    values, pairs = scenario
    names = [a for a, _op, _b in pairs] + ["arr[0]", "2.5", "(char)200",
                                           "(unsigned)3"]
    program, session = build(values, 2, 5, [])
    typed = {"arr[0]": ("int", -35), "2.5": ("double", 2.5),
             "(char)200": ("char", -56), "(unsigned)3": ("unsigned", 3)}
    tb, y = type_and_value(bound, values)
    passing = []
    for name in names:
        ta, x = typed.get(name) or type_and_value(name, values)
        if expect(op, ta, x, tb, y)[1]:
            passing.append(x)
    alternatives = ", ".join(names)
    assert session.eval_values(f"({alternatives}) {op}? {bound}") == passing
    assert session.eval_values(
        f"(v := ({alternatives})) => v {op}? {bound}") == passing
    # The same query again: every pair now has a plan.
    assert session.eval_values(f"({alternatives}) {op}? {bound}") == passing


@settings(deadline=None, max_examples=40)
@given(scenario=scenarios(), pi=st.integers(1, 7), qi=st.integers(0, 7),
       op=st.sampled_from(sorted(COMPARISONS)), j=st.integers(0, 3))
def test_pointer_comparisons_and_mixed_index_bases(scenario, pi, qi, op, j):
    values, _pairs = scenario
    cmp = COMPARISONS[op]
    checks = [(f"p {op} q", "int"), (f"p {op} 0", "int"),
              (f"0 {op} q", "int")]
    program, session = build(values, pi, qi, checks)
    base = program.lookup("arr").address
    pa, qa = base + 4 * pi, base + 4 * qi
    want = [int(cmp(pa, qa)), int(cmp(pa, 0)), int(cmp(0, qa))]
    for k, (text, _t) in enumerate(checks):
        assert session.eval_values(text) == [want[k]], text
        assert session.eval_values(f"r{k}") == [want[k]], text
    assert session.eval_values(f"(p, q, 0) {op}? p") == [
        a for a in (pa, qa, 0) if cmp(a, pa)]

    def peek(address, size):
        return int.from_bytes(program.memory.read(address, size), "little",
                              signed=True)

    # One Index node: an int array, an int pointer and a short array as
    # bases, and a negative index (arr[-1] is the word before arr).
    sh = program.lookup("sh").address
    expected = [peek(b + size * k, size)
                for b, size in ((base, 4), (pa, 4), (sh, 2))
                for k in (j, -1)]
    for _sight in ("built", "kept"):
        assert session.eval_values(f"(arr, p, sh)[{j}, -1]") == expected
