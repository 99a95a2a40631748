"""CLI observability: trace/explain/metrics commands, --trace-json,
--query-log / --dump-dir / --metrics-port and their REPL commands."""

import io
import json
import re

import pytest

from repro.cli import main

SOURCE = r"""
int values[4] = {5, -2, 9, 0};
int main(void) { return 0; }
"""


@pytest.fixture
def source(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(SOURCE)
    return str(path)


def run_cli(args, stdin_text=""):
    out = io.StringIO()
    status = main(args, stdin=io.StringIO(stdin_text), out=out)
    return status, out.getvalue()


class TestTraceCommandParsing:
    def test_strict_on_off(self, source):
        status, text = run_cli([source], stdin_text=(
            "trace on\ntrace off\nquit\n"))
        assert "trace on\n" in text
        assert "trace off\n" in text

    def test_bare_trace_prints_usage(self, source):
        status, text = run_cli([source], stdin_text="trace\nquit\n")
        assert "usage: trace on|off | trace <expression>" in text

    def test_near_miss_is_an_expression_not_a_toggle(self, source):
        """'trace onn' must not silently toggle tracing (the symbolic
        on|off hardening, applied here): it parses as an expression."""
        status, text = run_cli([source], stdin_text=(
            "trace onn\nquit\n"))
        assert "trace on\n" not in text
        assert "no symbol 'onn'" in text

    def test_trace_expression_profiles(self, source):
        status, text = run_cli([source], stdin_text=(
            "trace values[..4] >? 0\nquit\n"))
        assert "pulls=" in text and "yields=" in text
        assert "(generator engine)" in text


class TestExplainCommand:
    def test_explain_renders_profile(self, source):
        status, text = run_cli([source], stdin_text=(
            "explain values[..4] >? 0\nquit\n"))
        assert "ifgt" in text
        assert "pulls=" in text
        assert "100.0%" in text
        assert "-- 2 values in" in text

    def test_explain_without_argument(self, source):
        status, text = run_cli([source], stdin_text="explain\nquit\n")
        assert "usage: explain <expression>" in text


class TestMetricsCommand:
    def test_metrics_after_queries(self, source):
        status, text = run_cli([source], stdin_text=(
            "values[0]\nmetrics\nquit\n"))
        assert "queries_total" in text
        assert "query_wall_ms" in text

    def test_metrics_output_is_name_sorted(self, source):
        status, text = run_cli([source], stdin_text=(
            "values[0]\nmetrics\nquit\n"))
        start = text.splitlines().index(
            next(l for l in text.splitlines() if "governor_" in l))
        names = []
        for line in text.splitlines()[start:]:
            if not re.match(r"^[a-z][a-z0-9_]* ", line):
                break
            names.append(line.split()[0])
        assert len(names) > 3
        assert names == sorted(names)

    def test_metrics_export_is_prometheus_text(self, source):
        status, text = run_cli([source], stdin_text=(
            "values[0]\nmetrics export\nquit\n"))
        assert "# TYPE duel_queries_total counter" in text
        # (the CLI shares the process registry, so the count is >= 1)
        assert re.search(r"duel_queries_total [1-9]\d*", text)
        assert '_bucket{le="+Inf"}' in text

    def test_metrics_bad_subcommand_prints_usage(self, source):
        status, text = run_cli([source], stdin_text=(
            "metrics exprot\nquit\n"))
        assert "usage: metrics [export]" in text


class TestStatsFooterTraffic:
    def test_footer_carries_target_traffic(self, source):
        status, text = run_cli([source], stdin_text=(
            "stats on\nvalues[..4] >? 0\nquit\n"))
        footer = [l for l in text.splitlines()
                  if l.startswith("[steps=")][0]
        assert "reads=" in footer
        assert "writes=0" in footer
        assert "calls=0" in footer
        reads = int(footer.split("reads=")[1].split(",")[0])
        assert reads > 0


class TestTraceJsonFlag:
    def test_writes_jsonl(self, source, tmp_path):
        path = tmp_path / "trace.jsonl"
        status, text = run_cli(
            ["--trace-json", str(path), "-e", "values[..4] >? 0", source])
        assert status == 0
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        kinds = [r["ev"] for r in records]
        assert kinds[0] == "query"
        assert "pull" in kinds and "yield" in kinds and "span" in kinds
        header = records[0]
        assert header["text"] == "values[..4] >? 0"

    def test_repl_queries_traced_too(self, source, tmp_path):
        path = tmp_path / "trace.jsonl"
        status, text = run_cli(["--trace-json", str(path), source],
                               stdin_text="values[0]\nvalues[1]\nquit\n")
        headers = [json.loads(line)
                   for line in path.read_text().splitlines()
                   if json.loads(line)["ev"] == "query"]
        assert [h["q"] for h in headers] == [1, 2]

    def test_unwritable_path_is_an_error(self, source, tmp_path):
        status, text = run_cli(
            ["--trace-json", str(tmp_path / "no" / "dir" / "t.jsonl"),
             "-e", "1", source])
        assert status == 1
        assert "error:" in text


class TestQueryLogFlag:
    def test_batch_queries_logged(self, source, tmp_path):
        path = tmp_path / "q.jsonl"
        status, text = run_cli(
            ["--query-log", str(path), "-e", "values[..4] >? 0",
             "-e", "values[", source])
        assert status == 0
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        events = [(r["qid"], r["ev"]) for r in records]
        assert events == [(1, "received"), (1, "parsed"), (1, "drained"),
                          (2, "received"), (2, "rejected")]
        assert records[2]["values"] == 2
        assert records[2]["reads"] > 0

    def test_unwritable_path_is_an_error(self, source, tmp_path):
        status, text = run_cli(
            ["--query-log", str(tmp_path / "no" / "dir" / "q.jsonl"),
             "-e", "1", source])
        assert status == 1
        assert "error:" in text

    def test_qlog_toggle_suspends_logging(self, source, tmp_path):
        path = tmp_path / "q.jsonl"
        status, text = run_cli(
            ["--query-log", str(path), source],
            stdin_text=("values[0]\nqlog off\nvalues[1]\n"
                        "qlog on\nvalues[2]\nquit\n"))
        assert "qlog off\n" in text and "qlog on\n" in text
        logged = [json.loads(line)["text"]
                  for line in path.read_text().splitlines()
                  if json.loads(line)["ev"] == "received"]
        assert logged == ["values[0]", "values[2]"]

    def test_qlog_strict_parsing(self, source, tmp_path):
        status, text = run_cli(
            ["--query-log", str(tmp_path / "q.jsonl"), source],
            stdin_text="qlog\nqlog onn\nqlog off extra\nquit\n")
        assert text.count("usage: qlog on|off") == 3

    def test_qlog_on_without_log_explains(self, source):
        status, text = run_cli([source], stdin_text="qlog on\nquit\n")
        assert "no query log attached (start with --query-log FILE)" \
            in text


class TestDumpDirFlag:
    def test_faulting_batch_produces_postmortem(self, source, tmp_path):
        dumps = tmp_path / "dumps"
        status, text = run_cli(
            ["--dump-dir", str(dumps), "-e", "values[0]",
             "-e", "values[2000000]", source])
        assert status == 0
        (name,) = [p.name for p in dumps.iterdir()]
        artifact = json.loads((dumps / name).read_text())
        assert "values[2000000]" in artifact["reason"]
        assert artifact["queries"][-1]["outcome"] == "faulted"

    def test_manual_dump_command(self, source, tmp_path):
        dumps = tmp_path / "dumps"
        status, text = run_cli(
            ["--dump-dir", str(dumps), source],
            stdin_text="values[0]\ndump\nquit\n")
        assert "dumped " in text
        (name,) = [p.name for p in dumps.iterdir()]
        artifact = json.loads((dumps / name).read_text())
        assert artifact["reason"] == "manual dump"
        assert artifact["queries"][0]["text"] == "values[0]"

    def test_dump_without_recorder_explains(self, source):
        status, text = run_cli([source], stdin_text="dump\nquit\n")
        assert "no flight recorder (start with --dump-dir DIR)" in text

    def test_dump_to_explicit_directory(self, source, tmp_path):
        status, text = run_cli(
            ["--dump-dir", str(tmp_path / "a"), source],
            stdin_text=f"values[0]\ndump {tmp_path / 'b'}\nquit\n")
        assert "dumped " in text
        assert list((tmp_path / "b").iterdir())


class TestMetricsPortFlag:
    def test_announces_endpoint_and_serves_it(self, source):
        import urllib.request
        from repro.cli import repl as real_repl
        import repro.cli as cli_module
        scraped = {}

        # Scrape from *inside* the REPL lifetime: stub repl so the
        # server is still up when the request happens.
        def scraping_repl(session, stdin=None, out=None):
            url = scraped["url"]
            with urllib.request.urlopen(url, timeout=5) as response:
                scraped["body"] = response.read().decode()
            return real_repl(session, stdin=stdin, out=out)

        out = io.StringIO()

        class Capture(io.StringIO):
            def write(inner, text):
                if text.startswith("metrics: "):
                    scraped["url"] = text.split()[1]
                return out.write(text)

        cli_module.repl = scraping_repl
        try:
            status = main(["--metrics-port", "0", source],
                          stdin=io.StringIO("values[0]\nquit\n"),
                          out=Capture())
        finally:
            cli_module.repl = real_repl
        assert status == 0
        assert re.match(r"http://127\.0\.0\.1:\d+/metrics",
                        scraped["url"])
        assert "# TYPE duel_" in scraped["body"]


class TestSetupErrorCleanup:
    @pytest.mark.parametrize("failing", ["--metrics-port", "--dump-dir"])
    def test_setup_error_closes_every_opened_log(self, source, tmp_path,
                                                 failing):
        """A setup step failing after the logs opened (a busy metrics
        port, an unusable dump directory) returns 1 and leaves no log
        file open."""
        import gc
        import socket
        import warnings
        busy = socket.socket()
        busy.bind(("127.0.0.1", 0))
        busy.listen()
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        bad = {"--metrics-port": str(busy.getsockname()[1]),
               "--dump-dir": str(blocker / "dumps")}[failing]
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                status, text = run_cli(
                    [source, "--trace-json", str(tmp_path / "t.jsonl"),
                     "--query-log", str(tmp_path / "q.jsonl"),
                     "--access-trace", str(tmp_path / "a.jsonl"),
                     failing, bad], stdin_text="quit\n")
                gc.collect()
        finally:
            busy.close()
        assert status == 1
        assert "\nerror: " in text
        leaks = [str(w.message) for w in caught
                 if issubclass(w.category, ResourceWarning)]
        assert leaks == []


class TestSigintFlush:
    def test_interrupted_drive_still_flushes_qlog_and_trace(
            self, source, tmp_path):
        """^C mid-drive: the cancelled query's terminal record lands in
        the query log and its trace records land in the JSONL trace —
        both files complete and parseable after exit."""
        import signal as _signal
        import threading
        qlog_path = tmp_path / "q.jsonl"
        trace_path = tmp_path / "t.jsonl"
        timer = threading.Timer(
            0.15, lambda: _signal.raise_signal(_signal.SIGINT))
        timer.start()
        try:
            status, text = run_cli(
                ["--query-log", str(qlog_path),
                 "--trace-json", str(trace_path),
                 "--max-steps", "0", "--max-lines", "0",
                 "--deadline-ms", "10000", source],
                stdin_text="1..\nvalues[0]\nquit\n")
        finally:
            timer.cancel()
        assert status == 0
        assert "interrupted)" in text
        qrecords = [json.loads(line)
                    for line in qlog_path.read_text().splitlines()]
        terminals = [(r["qid"], r["ev"]) for r in qrecords
                     if r["ev"] not in ("received", "parsed")]
        assert terminals == [(1, "cancelled"), (2, "drained")]
        cancelled = next(r for r in qrecords if r["ev"] == "cancelled")
        assert cancelled["kind"] == "cancel"
        trecords = [json.loads(line)
                    for line in trace_path.read_text().splitlines()]
        spans_by_query = {}
        for record in trecords:
            if record["ev"] == "span":
                spans_by_query.setdefault(record["q"], 0)
                spans_by_query[record["q"]] += 1
        # The interrupted query's spans were still written (the trace
        # finish runs in the drive's finally) and flushed on close.
        assert spans_by_query.get(1, 0) >= 1
        assert spans_by_query.get(2, 0) >= 1


class TestStatementsCommand:
    def test_statements_after_queries(self, source):
        status, text = run_cli([source], stdin_text=(
            "values[..4]\nvalues[..2]\nvalues[0] = 7\n"
            "statements\nquit\n"))
        assert "statements: 2 shapes" in text
        # The two literal-variant reads folded into one shape.
        assert text.count("(name values)") >= 2

    def test_statements_by_calls(self, source):
        status, text = run_cli([source], stdin_text=(
            "values[..4]\nvalues[..2]\nvalues[0] = 7\n"
            "statements by calls\nquit\n"))
        lines = text.splitlines()
        header = next(i for i, line in enumerate(lines)
                      if line.startswith("statements: 2 shapes"))
        # Ordered by calls: the folded read shape (2 calls) first.
        assert " 2 " in lines[header + 2]

    def test_statements_bad_ordering_prints_usage(self, source):
        status, text = run_cli([source], stdin_text=(
            "statements by charm\nquit\n"))
        assert "usage: statements [by " in text

    def test_statements_extra_words_print_usage(self, source):
        status, text = run_cli([source], stdin_text=(
            "statements calls now\nquit\n"))
        assert "usage: statements [by " in text


class TestAccessesCommand:
    def test_accesses_renders_the_full_report(self, source):
        status, text = run_cli([source], stdin_text=(
            "accesses values[..4] !=? 0\nquit\n"))
        assert "accesses: values[..4] !=? 0" in text
        assert "pattern:" in text
        assert "prefetch advisor" in text
        assert "projected best:" in text

    def test_bare_accesses_prints_usage(self, source):
        status, text = run_cli([source], stdin_text="accesses\nquit\n")
        assert "usage: accesses <expression>" in text

    def test_accesses_reports_compile_errors(self, source):
        status, text = run_cli([source], stdin_text=(
            "accesses values[\nquit\n"))
        assert "pattern:" not in text
        assert "expected expression" in text

    def test_statements_by_reads_after_accesses(self, source):
        status, text = run_cli([source], stdin_text=(
            "accesses values[..4]\nstatements by reads\nquit\n"))
        assert "statements: 1 shapes" in text


class TestAccessTraceFlag:
    def test_access_trace_exports_profiles(self, source, tmp_path):
        path = tmp_path / "acc.jsonl"
        status, text = run_cli(
            [source, "--access-trace", str(path)],
            stdin_text="values[..4]\nvalues[..2]\nquit\n")
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert len(records) == 2
        for record in records:
            assert record["ev"] == "access"
            assert record["outcome"] == "drained"
            assert record["profile"]["reads"] > 0
            assert record["fingerprint"]

    def test_trace_sample_thins_the_access_export(self, source, tmp_path):
        path = tmp_path / "acc.jsonl"
        status, text = run_cli(
            [source, "--access-trace", str(path),
             "--trace-sample", "3"],
            stdin_text="values[0]\nvalues[1]\nvalues[2]\n"
                       "values[3]\nvalues[0]\nvalues[1]\nquit\n")
        records = path.read_text().splitlines()
        assert len(records) == 2        # queries 3 and 6

    def test_unwritable_access_trace_is_reported(self, source):
        status, text = run_cli(
            [source, "--access-trace", "/nonexistent/dir/acc.jsonl"],
            stdin_text="quit\n")
        assert status == 1
        assert "error: " in text
        assert "/nonexistent/dir/acc.jsonl" in text
