"""Tracing overhead on the P3 hot path.

The observability layer touches the evaluator in exactly two places:
one ``if self.tracer is None`` predicate in ``Evaluator.eval`` (per
node activation) and one increment-plus-predicate in
``TracingBackend.get_target_bytes`` (per target read).  This
benchmark runs the paper's P3 query ``x[..1000] !=? 0`` three ways:

* ``trace_off``     — the shipped configuration (tracer detached);
* ``no_trace_hook`` — the tracer branch edited out of ``eval`` and
  the raw backend restored: what the evaluator would cost if the
  observability layer had never been added;
* ``trace_on``      — a :class:`~repro.obs.trace.QueryTracer` with an
  in-memory ring sink attached, spans and events both recorded.

The smoke test asserts the *off* cost stays under the 5% target (with
margin for timer noise) — the same discipline ``bench_governor.py``
applies to the step accounting.  ``trace_on`` has no assertion here;
its CI gate (≤2x) lives in ``benchmarks/emit_json.py``.
"""

import time

import pytest

from conftest import make_array_session

from repro.core.errors import DuelError
from repro.obs.trace import QueryTracer, RingBufferSink

EXPR = "x[..1000] !=? 0"


@pytest.fixture(scope="module")
def traced_off_session():
    return make_array_session(1000, symbolic=False)


@pytest.fixture(scope="module")
def no_hook_session():
    """The evaluator with the tracer branch compiled out entirely."""
    session = make_array_session(1000, symbolic=False)
    ev = session.evaluator
    # Restore the pre-observability eval: dispatch straight into the
    # counted handler, no tracer predicate, no TracingBackend wrapper.
    ev.backend = ev.backend.inner

    def bare_eval(node):
        handler = ev._dispatch.get(type(node))
        if handler is None:
            raise DuelError(f"no evaluator for {node.op}")
        return ev._counted(handler(node))

    ev.eval = bare_eval
    return session


@pytest.fixture(scope="module")
def traced_on_session():
    return make_array_session(1000, symbolic=False)


def _eval_traced(session, text):
    node = session.compile(text)
    session.evaluator.reset()
    tracer = QueryTracer(RingBufferSink())
    tracer.begin(node, text)
    session.evaluator.set_tracer(tracer)
    try:
        return list(session.evaluator.eval(node))
    finally:
        tracer.finish()
        session.evaluator.set_tracer(None)


@pytest.mark.benchmark(group="trace-overhead")
def test_trace_off(benchmark, traced_off_session):
    out = benchmark(traced_off_session.eval, EXPR)
    assert len(out) > 900  # almost all seeded values are non-zero


@pytest.mark.benchmark(group="trace-overhead")
def test_no_trace_hook(benchmark, no_hook_session):
    out = benchmark(no_hook_session.eval, EXPR)
    assert len(out) > 900


@pytest.mark.benchmark(group="trace-overhead")
def test_trace_on(benchmark, traced_on_session):
    out = benchmark(_eval_traced, traced_on_session, EXPR)
    assert len(out) > 900


def test_trace_off_overhead_smoke(traced_off_session, no_hook_session):
    """The disabled tracer must stay invisible: target <5% on P3,
    asserted at a looser bound so scheduler noise can't flake the
    suite."""
    def best_of(session, repeats=7):
        timings = []
        for _ in range(repeats):
            start = time.perf_counter()
            session.eval(EXPR)
            timings.append(time.perf_counter() - start)
        return min(timings)

    best_of(traced_off_session, repeats=2)       # warm both paths
    best_of(no_hook_session, repeats=2)
    traced = best_of(traced_off_session)
    baseline = best_of(no_hook_session)
    overhead = traced / baseline - 1.0
    assert overhead < 0.15, (
        f"tracing-off overhead {overhead:.1%} on P3 (target <5%)")


class _NullStream:
    """Swallows output (and qlog flushes) without allocating."""

    def write(self, text):
        pass

    def flush(self):
        pass


def _pre_obs_duel(session, text, stream):
    """``session.duel`` as it was before the query log and flight
    recorder existed: same parse/trace/drive/finish skeleton, but no
    qlog predicate and no sink observes the finished record."""
    from time import perf_counter_ns

    from repro.core.session import QueryRecord
    session.governor.begin_query()
    t0 = perf_counter_ns()
    node = session.compile(text)
    parse_ns = perf_counter_ns() - t0
    session._record(text)
    tracer = session._attach_tracer(node, text)
    session._checkpoint_for(node)
    session.evaluator.reset()
    baseline = session._stats_baseline()
    drive_t0 = perf_counter_ns()
    try:
        for line in session._lines(node):
            stream.write(line + "\n")
    finally:
        session._finish_query(QueryRecord(session, None, text, node),
                              tracer, None, baseline, parse_ns,
                              perf_counter_ns() - drive_t0)


@pytest.fixture(scope="module")
def qlog_off_session():
    return make_array_session(1000, symbolic=False)


@pytest.fixture(scope="module")
def pre_obs_session():
    return make_array_session(1000, symbolic=False)


@pytest.fixture(scope="module")
def qlog_on_session():
    from repro.obs.qlog import QueryLog
    session = make_array_session(1000, symbolic=False)
    session.qlog = QueryLog(_NullStream())
    return session


@pytest.mark.benchmark(group="qlog-overhead")
def test_qlog_off(benchmark, qlog_off_session):
    benchmark(qlog_off_session.duel, EXPR, out=_NullStream())


@pytest.mark.benchmark(group="qlog-overhead")
def test_pre_obs_duel(benchmark, pre_obs_session):
    benchmark(_pre_obs_duel, pre_obs_session, EXPR, _NullStream())


@pytest.mark.benchmark(group="qlog-overhead")
def test_qlog_on(benchmark, qlog_on_session):
    benchmark(qlog_on_session.duel, EXPR, out=_NullStream())


def test_qlog_off_overhead_smoke(qlog_off_session, pre_obs_session):
    """With the query log and flight recorder off, the full ``duel``
    drive must cost what it cost before they existed: target <5% on
    P3, asserted at a looser bound so timer noise can't flake CI.
    The off-state cost is two ``is not None`` predicates per query."""
    assert qlog_off_session.qlog is None
    assert qlog_off_session.recorder is None

    def best_of(fn, repeats=7):
        timings = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            timings.append(time.perf_counter() - start)
        return min(timings)

    stream = _NullStream()
    current = lambda: qlog_off_session.duel(EXPR, out=stream)
    pre_obs = lambda: _pre_obs_duel(pre_obs_session, EXPR, stream)
    best_of(current, repeats=2)                  # warm both paths
    best_of(pre_obs, repeats=2)
    overhead = best_of(current) / best_of(pre_obs) - 1.0
    assert overhead < 0.15, (
        f"qlog-off duel overhead {overhead:.1%} on P3 (target <5%)")


def test_trace_on_records_the_whole_query(traced_on_session):
    """Sanity: the traced run sees every value the query produced."""
    session = traced_on_session
    node = session.compile(EXPR)
    session.evaluator.reset()
    tracer = QueryTracer(RingBufferSink())
    tracer.begin(node, EXPR)
    session.evaluator.set_tracer(tracer)
    try:
        values = list(session.evaluator.eval(node))
    finally:
        tracer.finish()
        session.evaluator.set_tracer(None)
    root = tracer.span_for(node)
    assert len(values) > 900
    assert root.yields == len(values)
    assert root.pulls == len(values) + 1      # final exhausted pull
    assert tracer.total_ns() > 0
