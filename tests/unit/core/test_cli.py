"""Unit tests for the command-line front end."""

import io

import pytest

from repro.cli import main

SYMTAB = r"""
int values[4] = {5, -2, 9, 0};
int total = 0;
int main(void) {
    int i;
    for (i = 0; i < 4; i++) total += values[i];
    printf("total=%d\n", total);
    return 0;
}
"""


@pytest.fixture
def source(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(SYMTAB)
    return str(path)


def run_cli(args, stdin_text=""):
    out = io.StringIO()
    status = main(args, stdin=io.StringIO(stdin_text), out=out)
    return status, out.getvalue()


class TestExprMode:
    def test_single_expression(self, source):
        status, text = run_cli(["--expr", "values[..4] >? 0", source])
        assert status == 0
        assert "values[0] = 5" in text
        assert "values[2] = 9" in text

    def test_program_output_shown(self, source):
        status, text = run_cli(["-e", "total", source])
        assert "total=12" in text        # the program's printf
        assert "total = 12" in text      # DUEL's answer
        assert "[program exited with status 0]" in text

    def test_multiple_expressions(self, source):
        status, text = run_cli(["-e", "1..3", "-e", "total", source])
        assert "1 2 3" in text and "total = 12" in text

    def test_error_printed_not_raised(self, source):
        status, text = run_cli(["-e", "nosuchvar", source])
        assert status == 0
        assert "no symbol 'nosuchvar'" in text

    def test_no_symbolic_flag(self, source):
        status, text = run_cli(["--no-symbolic", "-e", "values[0]", source])
        assert "\n5\n" in text

    def test_missing_file(self):
        status, text = run_cli(["-e", "1", "/nonexistent.c"])
        assert status == 1 and "error:" in text

    def test_bad_program(self, tmp_path):
        path = tmp_path / "bad.c"
        path.write_text("int main(void) { return }")
        status, text = run_cli(["-e", "1", str(path)])
        assert status == 1


class TestRepl:
    def test_session_flow(self, source):
        status, text = run_cli([source], stdin_text=(
            "total\n"
            "x := 2\n"
            "x * 10\n"
            "aliases\n"
            "quit\n"))
        assert status == 0
        assert "total = 12" in text
        assert "x*10 = 20" in text
        assert "x := 2" in text

    def test_help_and_clear(self, source):
        status, text = run_cli([source], stdin_text=(
            "help\nclear\naliases\nquit\n"))
        assert "DUEL REPL commands" in text
        assert "(no aliases)" in text

    def test_symbolic_toggle(self, source):
        status, text = run_cli([source], stdin_text=(
            "symbolic off\nvalues[0]\nsymbolic on\nvalues[0]\nquit\n"))
        lines = text.splitlines()
        assert "5" in lines
        assert "values[0] = 5" in lines

    def test_empty_output_marker(self, source):
        status, text = run_cli([source], stdin_text="1..0\nquit\n")
        assert "(no values)" in text

    def test_calculator_mode_without_program(self):
        status, text = run_cli([], stdin_text="(1..3)+(5,9)\nquit\n")
        assert "6 10 7 11 8 12" in text

    def test_eof_terminates(self, source):
        status, text = run_cli([source], stdin_text="total\n")
        assert status == 0


class TestHistoryAndSaved:
    def test_history_command(self, source):
        status, text = run_cli([source], stdin_text=(
            "1+1\ntotal\nhistory\nquit\n"))
        assert "  0  1+1" in text
        assert "  1  total" in text

    def test_save_and_reissue(self, source):
        status, text = run_cli([source], stdin_text=(
            "save tot total\n"
            "!tot\n"
            "quit\n"))
        assert "saved 'tot'" in text
        assert "total = 12" in text

    def test_save_validates(self, source):
        status, text = run_cli([source], stdin_text=(
            "save bad total +\nquit\n"))
        assert "saved" not in text

    def test_unknown_saved_query(self, source):
        status, text = run_cli([source], stdin_text="!nope\nquit\n")
        assert "no saved query" in text

    def test_save_usage_message(self, source):
        status, text = run_cli([source], stdin_text="save onlyname\nquit\n")
        assert "usage: save" in text


class TestSessionHistoryApi:
    def test_history_dedupes_consecutive(self, source):
        from repro import DuelSession, SimulatorBackend, TargetProgram
        session = DuelSession(SimulatorBackend(TargetProgram()))
        session.eval("1+1")
        session.eval("1+1")
        session.eval("2+2")
        assert session.history == ["1+1", "2+2"]

    def test_run_saved(self):
        from repro import DuelSession, SimulatorBackend, TargetProgram
        session = DuelSession(SimulatorBackend(TargetProgram()))
        session.save_query("sum", "+/(1..10)")
        assert session.run_saved("sum") == ["55"]
        import pytest as _pytest
        with _pytest.raises(KeyError):
            session.run_saved("missing")


class TestSymbolicCommandParsing:
    def test_bare_symbolic_prints_usage(self, source):
        status, text = run_cli([source], stdin_text="symbolic\nquit\n")
        assert "usage: symbolic on|off" in text

    def test_garbage_argument_prints_usage(self, source):
        """'symbolic banana' used to silently *enable* symbolics."""
        status, text = run_cli([source], stdin_text=(
            "symbolic off\nsymbolic banana\nvalues[0]\nquit\n"))
        assert "usage: symbolic on|off" in text
        # The bad argument must not have flipped the mode back on.
        assert "\n5\n" in text
        assert "values[0] = 5" not in text


class TestLimitsCommand:
    def test_show(self, source):
        status, text = run_cli([source], stdin_text="limits\nquit\n")
        assert "steps" in text and "deadline_ms" in text
        assert "truncate" in text

    def test_set_and_truncate(self, source):
        status, text = run_cli([], stdin_text=(
            "limits steps 12\n"
            "1..\n"
            "quit\n"))
        assert "limits steps 12" in text
        assert "step budget exhausted" in text
        assert "raise with 'limits steps 24'" in text

    def test_set_off(self, source):
        status, text = run_cli([], stdin_text=(
            "limits deadline_ms off\nlimits\nquit\n"))
        assert "limits deadline_ms off" in text

    def test_bad_name_reported(self, source):
        status, text = run_cli([], stdin_text="limits bananas 3\nquit\n")
        assert "unknown limit" in text

    def test_usage(self, source):
        status, text = run_cli([], stdin_text="limits steps\nquit\n")
        assert "usage: limits" in text


class TestStatsFooter:
    def test_stats_toggle_and_footer(self, source):
        status, text = run_cli([source], stdin_text=(
            "stats on\ntotal\nstats off\ntotal\nquit\n"))
        assert "stats on" in text
        footers = [l for l in text.splitlines() if l.startswith("[steps=")]
        assert len(footers) == 1
        assert "lookups=" in footers[0] and "wall=" in footers[0]

    def test_stats_usage(self, source):
        status, text = run_cli([source], stdin_text="stats maybe\nquit\n")
        assert "usage: stats on|off" in text


class TestLimitFlags:
    def test_max_steps_flag(self):
        status, text = run_cli(["--max-steps", "20", "-e", "1.."])
        assert status == 0
        assert "step budget exhausted" in text

    def test_max_lines_flag(self):
        status, text = run_cli(["--max-lines", "5", "-e", "0..100"])
        assert "output quota exhausted" in text
        assert "raise with 'limits lines 10'" in text

    def test_deadline_flag(self):
        status, text = run_cli(["--deadline-ms", "1", "--max-steps", "0",
                                "--max-lines", "0", "-e", "#/(0..)"])
        assert "wall-clock deadline expired" in text

    def test_default_limits_terminate_unbounded_query(self):
        """Acceptance: `duel 1..` under default limits terminates with
        partials, a diagnostic, and a still-usable session."""
        status, text = run_cli([], stdin_text="1..\n+/(1..3)\nquit\n")
        assert status == 0
        lines = text.splitlines()
        assert lines[0].startswith("1 2 3 ")
        assert "(stopped: 10000 values, output quota exhausted" in text
        assert "6" in lines[-1]                  # session still works


class TestSigint:
    def test_handler_trips_token(self):
        import signal as _signal
        from repro.cli import sigint_handler
        from repro import DuelSession, SimulatorBackend, TargetProgram
        session = DuelSession(SimulatorBackend(TargetProgram()))
        handler = sigint_handler(session.governor.token)
        handler(_signal.SIGINT, None)
        assert session.governor.token.tripped

    def test_repl_sigint_mid_drive_prints_partials(self):
        """A real SIGINT during an unbounded drive: partial results and
        an (interrupted) line, no traceback, REPL continues."""
        import signal as _signal
        import threading
        from repro.cli import repl
        from repro import DuelSession, SimulatorBackend, TargetProgram
        # Unlimited output/steps; a 10s deadline only as a backstop so
        # a lost signal fails the assertion instead of hanging CI.
        session = DuelSession(SimulatorBackend(TargetProgram()),
                              max_steps=0, max_lines=0,
                              deadline_ms=10_000)
        out = io.StringIO()
        timer = threading.Timer(
            0.15, lambda: _signal.raise_signal(_signal.SIGINT))
        timer.start()
        try:
            status = repl(session, stdin=io.StringIO("1..\n+/(1..3)\nquit\n"),
                          out=out)
        finally:
            timer.cancel()
        assert status == 0
        text = out.getvalue()
        assert "interrupted)" in text
        assert text.splitlines()[0].startswith("1 2 3 ")
        assert "6" in text                       # next query still ran

    def test_repl_restores_previous_handler(self, source):
        import signal as _signal
        before = _signal.getsignal(_signal.SIGINT)
        run_cli([source], stdin_text="quit\n")
        assert _signal.getsignal(_signal.SIGINT) is before


class TestRemovedFlags:
    """The constant-folding pass and the adaptive prefetcher are gone:
    their flags are usage errors, not silently ignored."""

    @pytest.mark.parametrize("flags", [
        ["--optimize"],
        ["--page-cache", "adaptive"],
    ])
    def test_refused_by_the_argument_parser(self, source, flags, capsys):
        with pytest.raises(SystemExit) as caught:
            run_cli([*flags, "-e", "values[1+1]", source])
        assert caught.value.code == 2
        assert flags[-1] in capsys.readouterr().err


class TestSampleFlags:
    def test_trace_sample_zero_refused_before_serving(self, source,
                                                      tmp_path):
        status, text = run_cli(
            ["--serve", "--port", "0",
             "--trace-json", str(tmp_path / "t.jsonl"),
             "--trace-sample", "0", source])
        assert status == 1
        assert text == "error: trace sample must be >= 1\n"

    @pytest.mark.parametrize("flag", ["--trace-sample", "--access-sample"])
    def test_sample_below_one_refused_without_an_export(self, source,
                                                        flag):
        status, text = run_cli([flag, "-1", "-e", "values[0]", source])
        assert status == 1
        assert text == (f"error: {flag[2:].replace('-', ' ')} "
                        "must be >= 1\n")
