"""Differential property test: the page cache must be observationally
invisible (PR 10).

The cache sits *below* the access observatory, so the logical access
stream — the ordered (op, address, size) sequence the evaluator sends
at the target — must be byte-identical with the cache off and on (at
two page sizes), for both evaluation engines.
So must the values.  Only the *physical* traffic underneath may
change.  Any divergence means the cache changed what a query reads —
a correctness bug, not a performance artifact.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import DuelSession, SimulatorBackend, TargetProgram
from repro.core.statemachine import StateMachineEvaluator
from repro.obs.access import AccessTracer
from repro.target import builder
from repro.target.pagecache import PageCachePolicy

#: Tight policies so eviction paths actually run under the random
#: workload, not just the fast paths.
POLICIES = (
    None,
    PageCachePolicy(page_size=32, capacity=4),
    PageCachePolicy(page_size=256, capacity=64),
)


@pytest.fixture(scope="module")
def rig():
    program = TargetProgram()
    builder.int_array(program, "x",
                      [3, -1, 7, 0, 12, -9, 2, 120, 5, -4])
    session = DuelSession(SimulatorBackend(program))
    return session, StateMachineEvaluator(session.evaluator)


# -- random expression generation (the test_engines subset) --------------
ints = st.integers(-9, 9)

#: Most values a drawn expression may produce.  Each example is driven
#: eight times (two engines, four policies); uncapped, a draw such as
#: ``(- (- ((x[1] .. x[7]) .. (x[7] * x[7]))))`` yields 1.75M values
#: and outlives the suite's per-test wall-clock guard.  Every operator
#: and shape stays in the strategy; only the magnitude is capped.
MAX_VALUES = 10_000

#: Largest magnitude of an element of the rig's ``x``.
X_MAX = 120

# A drawn expression is (text, most values it can produce, largest
# magnitude of any value), so the cap is checked without driving it.


def leaf():
    return st.one_of(
        ints.map(lambda i: (str(i), 1, abs(i))),
        st.just(("x[0]", 1, X_MAX)),
        st.just(("x[1]", 1, X_MAX)),
        st.builds(lambda a, b: (f"x[{abs(a) % 10}]", 1, X_MAX), ints, ints),
    )


def _binop(op, a, b):
    (ta, na, ma), (tb, nb, mb) = a, b
    values = na + nb if op == "," else na * nb
    magnitude = {"+": ma + mb, "-": ma + mb, "*": ma * mb,
                 ",": max(ma, mb), "&&": mb}.get(op, ma)
    return (f"({ta} {op} {tb})", values, magnitude)


def _range(a, b):
    (ta, na, ma), (tb, nb, mb) = a, b
    return (f"({ta} .. {tb})", na * nb * (ma + mb + 1), max(ma, mb))


def _guarded(a, b):
    (ta, na, _), (tb, nb, mb) = a, b
    return (f"(if ({ta}) {tb})", na * nb, mb)


def combine(children):
    binop = st.sampled_from(["+", "-", "*", ",", ">?", "<?", "==?", "&&"])
    return st.one_of(
        st.tuples(binop, children, children).map(lambda t: _binop(*t)),
        st.tuples(children, children).map(lambda t: _range(*t)),
        children.map(lambda c: (f"(- {c[0]})", c[1], c[2])),
        st.tuples(children, children).map(lambda t: _guarded(*t)),
    )


expressions = st.recursive(leaf(), combine, max_leaves=8).filter(
    lambda drawn: drawn[1] <= MAX_VALUES).map(lambda drawn: drawn[0])


def observed(session, drive, node, policy):
    """(values, logical accesses) under the given cache policy.

    Values are loaded only after the drive completes — loading reads
    target memory, and interleaving those reads into a suspended
    generator's stream would differ from the state machine's
    drive-then-load order for reasons unrelated to the cache.
    """
    evaluator = session.evaluator
    evaluator.reset()
    evaluator.set_page_cache(policy)
    tracer = AccessTracer()
    evaluator.set_access_tracer(tracer)
    try:
        raw = list(drive(node))
    finally:
        evaluator.set_access_tracer(None)
        evaluator.set_page_cache(None)
    return [evaluator.ops.load(v) for v in raw], tracer.accesses()


@given(text=expressions)
@settings(deadline=None)
def test_cache_is_invisible_to_values_and_access_streams(rig, text):
    session, sm = rig
    node = session.compile(text)
    drives = {
        "generator": lambda n: session.evaluator.eval(n),
        "statemachine": lambda n: sm.iter_drive(n),
    }
    baseline = None
    for engine, drive in drives.items():
        for policy in POLICIES:
            values, accesses = observed(session, drive, node, policy)
            if baseline is None:
                baseline = (values, accesses)
                continue
            assert (values, accesses) == baseline, (engine, policy)


@given(text=expressions)
@settings(deadline=None)
def test_cache_serves_repeat_scans_without_physical_reads(rig, text):
    """A second identical run over a warm cache does no physical I/O
    at all — and still produces the identical logical stream."""
    session, sm = rig
    node = session.compile(text)
    evaluator = session.evaluator
    policy = PageCachePolicy(page_size=256, capacity=64)
    evaluator.reset()
    evaluator.set_page_cache(policy)
    try:
        list(evaluator.eval(node))
        cache = evaluator.page_cache
        physical_before = cache.physical_reads
        tracer = AccessTracer()
        evaluator.set_access_tracer(tracer)
        try:
            evaluator.reset()
            list(evaluator.eval(node))
        finally:
            evaluator.set_access_tracer(None)
        warm_accesses = tracer.accesses()
        assert cache.physical_reads == physical_before
    finally:
        evaluator.set_page_cache(None)
    tracer = AccessTracer()
    evaluator.set_access_tracer(tracer)
    try:
        evaluator.reset()
        list(evaluator.eval(node))
    finally:
        evaluator.set_access_tracer(None)
    assert warm_accesses == tracer.accesses()


def test_cache_sees_writes_from_its_own_session(rig):
    """Write-through coherence at the session level: a duel write is
    visible to the very next cached read."""
    import io
    program = TargetProgram()
    builder.int_array(program, "x", list(range(16)))
    session = DuelSession(
        SimulatorBackend(program),
        page_cache=PageCachePolicy(page_size=64, capacity=8))
    session.duel("x[..16]", out=io.StringIO())    # warm the cache
    session.duel("x[3] = 777", out=io.StringIO())
    out = io.StringIO()
    session.duel("x[3]", out=out)
    assert "777" in out.getvalue()


def test_pointer_chase_parity_with_cache(rig):
    program = TargetProgram()
    builder.linked_list(program, "head", [11, 42, 5, 33, 19, 29, 8, 77])
    session = DuelSession(SimulatorBackend(program))
    sm = StateMachineEvaluator(session.evaluator)
    node = session.compile("head-->next->value >? 20")
    results = []
    for policy in POLICIES:
        results.append(observed(
            session, lambda n: session.evaluator.eval(n), node, policy))
        results.append(observed(
            session, lambda n: sm.drive(n), node, policy))
    assert all(r == results[0] for r in results[1:])
    assert results[0][1]                # the walk really touched memory
