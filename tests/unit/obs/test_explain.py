"""EXPLAIN profiles: render_profile and DuelSession.explain."""

import io
import json

from repro.bench import workloads
from repro.core.session import DuelSession
from repro.obs.access import AccessLog
from repro.obs.explain import profile_footer, render_profile
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import QueryTracer
from repro.target.interface import SimulatorBackend


def explain_lines(session, text):
    out = io.StringIO()
    session.explain(text, out=out)
    return out.getvalue().splitlines()


class TestRenderProfile:
    def test_tree_shape_and_columns(self, session):
        node = session.compile("x[..10] >? 5")
        session.evaluator.reset()
        tracer = QueryTracer()
        tracer.begin(node, "")
        session.evaluator.set_tracer(tracer)
        list(session.evaluator.eval(node))
        session.evaluator.set_tracer(None)
        lines = render_profile(node, tracer)
        assert len(lines) == len(tracer.spans)
        root = lines[0]
        assert root.startswith("ifgt")
        assert "pulls=4" in root            # 3 values + exhausted pull
        assert "yields=3" in root
        assert "100.0%" in root
        assert any(line.lstrip().startswith(("├─", "└─"))
                   for line in lines[1:])
        # Profile columns line up across rows.
        columns = [line.index("pulls=") for line in lines]
        assert len(set(columns)) == 1

    def test_traffic_only_when_nonzero(self, session):
        node = session.compile("(1..3)")
        session.evaluator.reset()
        tracer = QueryTracer()
        tracer.begin(node, "")
        session.evaluator.set_tracer(tracer)
        list(session.evaluator.eval(node))
        session.evaluator.set_tracer(None)
        lines = render_profile(node, tracer)
        assert all("reads=" not in line for line in lines)

    def test_footer(self):
        text = profile_footer(30, 4.7, {"reads": 130, "writes": 0,
                                        "calls": 0})
        assert text == ("-- 30 values in 4.7ms; 130 reads, 0 writes, "
                        "0 calls (generator engine)")


class TestSessionExplain:
    def test_paper_filter_example(self, session):
        lines = explain_lines(session, "x[..100] >? 5")
        assert lines[0].startswith("ifgt")
        assert "pulls=" in lines[0] and "yields=" in lines[0]
        assert any("reads=" in line for line in lines)
        assert any('name "x"' in line for line in lines)
        assert lines[-1].startswith("-- ")
        assert "values in" in lines[-1]
        assert "(generator engine)" in lines[-1]

    def test_paper_list_walk_example(self, session):
        lines = explain_lines(session, "head-->next->value")
        assert lines[0].startswith("witharrow")
        assert any("dfs" in line for line in lines)
        assert any('name "value"' in line for line in lines)
        assert lines[-1].startswith("-- 8 values in ")

    def test_swallows_output_lines(self, session):
        lines = explain_lines(session, "x[..10] >? 5")
        assert not any("x[2] = 7" in line for line in lines)

    def test_compile_error_reports_without_profile(self, session):
        lines = explain_lines(session, "x[..")
        assert "expression" in lines[0]
        assert not any("pulls=" in line for line in lines)

    def test_truncation_appends_diagnostic(self, session):
        session.governor.set_limit("lines", 2)
        try:
            lines = explain_lines(session, "x[..100] !=? 0")
        finally:
            session.governor.set_limit("lines", None)
        assert lines[0].startswith("ifne")
        assert "(stopped:" in lines[-1]

    def test_explain_fills_last_query_stats(self, session):
        explain_lines(session, "x[..10] >? 5")
        stats = session.last_query.stats
        assert stats["reads"] > 0
        assert stats["steps"] > 0

    def test_explain_detaches_tracer(self, session):
        explain_lines(session, "x[3]")
        assert session.evaluator.tracer is None
        out = io.StringIO()
        session.duel("x[3]", out=out)
        assert out.getvalue().strip() == "x[3] = 0"

    def test_explain_feeds_the_sinks_like_duel(self):
        """``explain`` is ``duel`` traced: the flight recorder gets an
        entry with the same keys (event tail included), and the
        access log's sampling coin is taken, once per command."""
        session = DuelSession(SimulatorBackend(workloads.big_array(100)),
                              metrics=MetricsRegistry())
        session.recorder = FlightRecorder()
        exported = io.StringIO()
        session.accesslog = AccessLog(exported, sample=1)
        session.duel("x[..10] >? 5", out=io.StringIO())
        explain_lines(session, "x[..10] >? 5")
        duel_entry, explain_entry = session.recorder.last(2)
        assert set(explain_entry) == set(duel_entry)
        assert explain_entry["events"]
        records = [json.loads(line)
                   for line in exported.getvalue().splitlines()]
        assert [r["text"] for r in records] == ["x[..10] >? 5"] * 2
