"""Session reuse: per-query stats must be zeroed between queries.

The observability PR's satellite requirement: a long-lived session
(the REPL) runs many queries through one Evaluator; governor counters
and traffic deltas must reset cleanly so identical back-to-back
queries report identical per-query stats — no leakage from the
previous query.
"""

import io

import pytest


def run(session, text):
    session.duel(text, out=io.StringIO())
    return dict(session.last_query.stats)


def strip_wall(stats):
    return {k: v for k, v in stats.items() if k != "wall_ms"}


class TestPerQueryStatsReset:
    def test_identical_queries_report_identical_stats(self, session):
        first = run(session, "x[..10] >? 5")
        second = run(session, "x[..10] >? 5")
        assert strip_wall(first) == strip_wall(second)
        assert first["steps"] > 0
        assert first["reads"] > 0

    def test_cheap_query_after_expensive_one(self, session):
        run(session, "x[..10] !=? 0")
        cheap = run(session, "x[3]")
        assert cheap["steps"] < 10
        assert cheap["reads"] < 5
        assert cheap["lines"] == 1

    def test_governor_counters_zeroed_by_reset(self, session):
        run(session, "x[..10] >? 5")
        assert session.governor.steps > 0
        session.evaluator.reset()
        governor = session.governor
        assert (governor.steps, governor.expands, governor.lines,
                governor.calls, governor.allocs) == (0, 0, 0, 0, 0)

    def test_compile_error_clears_stale_stats(self, session):
        run(session, "x[..10] >? 5")
        session.duel("x[..", out=io.StringIO())
        assert session.last_query.stats == {}

    def test_explain_and_duel_report_same_work(self, session):
        explained = None
        session.explain("x[..10] >? 5", out=io.StringIO())
        explained = dict(session.last_query.stats)
        plain = run(session, "x[..10] >? 5")
        for key in ("steps", "lines", "reads", "writes", "calls"):
            assert explained[key] == plain[key]

    def test_traced_queries_report_same_stats_as_untraced(self, session):
        untraced = run(session, "x[..10] >? 5")
        session.tracing = True
        try:
            traced = run(session, "x[..10] >? 5")
        finally:
            session.tracing = False
        assert strip_wall(untraced) == strip_wall(traced)
