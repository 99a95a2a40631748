"""Command-line front end: run a mini-C program, then explore it with
``duel`` commands — the closest offline equivalent of the paper's
gdb session.

Usage::

    python -m repro program.c [-- arg1 arg2 ...]
    python -m repro --expr 'x[..100] >? 0' program.c
    python -m repro            # no program: a bare DUEL calculator

Inside the REPL::

    duel> hash[..64] !=? 0
    duel> save deep hash[..64]-->next->scope >? 5
    duel> !deep
    duel> help
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys
from typing import Optional, Sequence

from repro import DuelSession, SimulatorBackend, TargetProgram
from repro.core.errors import DuelError
from repro.core.governor import CancelToken
from repro.minic import run_program
from repro.minic.errors import MiniCError
from repro.target.stdlib import install_stdlib, stdout_text

PROMPT = "duel> "

HELP = """\
DUEL REPL commands:
  <expression>          evaluate a DUEL expression and print its values
  help                  this text
  aliases               list debugger aliases (x := ...)
  clear                 drop all aliases
  symbolic on|off       toggle symbolic derivations in output
  limits [<name> <n>]   show / set per-query limits (n=off disables)
  stats on|off          print a [steps=.., reads=.., wall=..ms] footer
  explain <expr>        run traced; print the per-node profile tree
  trace <expr>          same as explain
  accesses <expr>       run with the memory-access tracer; print the
                        stride/locality profile and prefetch advice
  cache                 page-cache statistics (--page-cache demand)
  trace on|off          trace every sampled query (--trace-json
                        writes its events; --trace-sample N traces
                        1 in N)
  qlog on|off           toggle the structured query log (--query-log)
  metrics [export]      metrics registry table, or Prometheus text format
  statements [by KEY]   per-query-shape statistics (total_ms, calls, ...)
  dump [DIR]            write a flight-recorder post-mortem (--dump-dir)
  history               show executed queries
  save <name> <expr>    name a query for re-issue
  !<name>               re-issue a saved query
  quit / EOF            leave
^C stops a running query; its partial values are kept.
Anything else is handed to DUEL; see README.md for the language."""


def sigint_handler(token: CancelToken):
    """The REPL's ^C handler: trip the cooperative cancel token.

    The governor notices at its next checkpoint, the drive loop stops,
    partial results stand, and a ``(stopped: ... interrupted)`` line is
    printed — the paper's "output can be stopped with the standard gdb
    ^C interrupt", without killing the session.
    """
    def handle(signum, frame):
        token.trip("interrupt")
    return handle


def build_target(source_path: Optional[str],
                 argv: Sequence[str], out) -> TargetProgram:
    """Run the program (if given) and return the stopped inferior."""
    if source_path is None:
        program = TargetProgram()
        install_stdlib(program)
        return program
    with open(source_path) as handle:
        source = handle.read()
    interp = run_program(source, argv=[source_path, *argv])
    text = stdout_text(interp.program)
    if text:
        out.write(text)
        if not text.endswith("\n"):
            out.write("\n")
    if interp.exit_status is not None:
        out.write(f"[program exited with status {interp.exit_status}]\n")
    return interp.program


def repl(session: DuelSession, stdin=None, out=None) -> int:
    """Interactive loop; returns an exit status.

    Installs a SIGINT handler for its lifetime (when running on the
    main thread) so ^C trips the session's cancel token instead of
    raising KeyboardInterrupt through a half-driven query.
    """
    stdin = stdin if stdin is not None else sys.stdin
    out = out if out is not None else sys.stdout
    stats = False
    try:
        previous = signal.signal(signal.SIGINT,
                                 sigint_handler(session.governor.token))
    except ValueError:          # not the main thread: no handler swap
        previous = None
    try:
        for raw in stdin:
            line = raw.strip()
            if not line:
                continue
            if line in ("quit", "exit", "q"):
                break
            if line == "help":
                out.write(HELP + "\n")
                continue
            if line == "aliases":
                aliases = session.aliases()
                if not aliases:
                    out.write("(no aliases)\n")
                for name, value in aliases.items():
                    out.write(f"{name} := "
                              f"{session.formatter.format(value)}\n")
                continue
            if line == "clear":
                session.clear_aliases()
                continue
            if line.split()[0] == "symbolic":
                parts = line.split()
                if len(parts) == 2 and parts[1] in ("on", "off"):
                    session.options.symbolic = (parts[1] == "on")
                    out.write(f"symbolic {parts[1]}\n")
                else:
                    out.write("usage: symbolic on|off\n")
                continue
            if line.split()[0] == "stats":
                parts = line.split()
                if len(parts) == 2 and parts[1] in ("on", "off"):
                    stats = (parts[1] == "on")
                    out.write(f"stats {parts[1]}\n")
                else:
                    out.write("usage: stats on|off\n")
                continue
            if line.split()[0] == "limits":
                _limits_command(session, line, out)
                continue
            if line.split()[0] == "trace":
                _trace_command(session, line, out)
                continue
            if line.split()[0] == "explain":
                parts = line.split(None, 1)
                if len(parts) == 2:
                    session.explain(parts[1], out=out)
                else:
                    out.write("usage: explain <expression>\n")
                continue
            if line.split()[0] == "accesses":
                _accesses_command(session, line, out)
                continue
            if line.split()[0] == "cache":
                _cache_command(session, line, out)
                continue
            if line.split()[0] == "qlog":
                _qlog_command(session, line, out)
                continue
            if line.split()[0] == "metrics":
                _metrics_command(session, line, out)
                continue
            if line.split()[0] == "statements":
                _statements_command(session, line, out)
                continue
            if line.split()[0] == "dump":
                _dump_command(session, line, out)
                continue
            if line == "history":
                for index, text in enumerate(session.history):
                    out.write(f"{index:3}  {text}\n")
                continue
            if line.startswith("save "):
                parts = line.split(None, 2)
                if len(parts) < 3:
                    out.write("usage: save <name> <expression>\n")
                    continue
                try:
                    session.save_query(parts[1], parts[2])
                    out.write(f"saved {parts[1]!r}\n")
                except DuelError as error:
                    out.write(str(error) + "\n")
                continue
            if line.startswith("!"):
                name = line[1:].strip()
                if name not in session.saved:
                    out.write(f"no saved query named {name!r}\n")
                    continue
                run_command(session, session.saved[name], out, stats=stats)
                continue
            run_command(session, line, out, stats=stats)
    finally:
        if previous is not None:
            signal.signal(signal.SIGINT, previous)
    return 0


def _limits_command(session: DuelSession, line: str, out) -> None:
    """``limits`` / ``limits show`` / ``limits <name> <value|off>``."""
    governor = session.governor
    parts = line.split()
    if len(parts) == 1 or (len(parts) == 2 and parts[1] == "show"):
        for row in governor.describe():
            out.write(row + "\n")
        return
    if len(parts) == 3:
        name, raw = parts[1], parts[2]
        try:
            value = None if raw.lower() in ("off", "none") else int(raw)
        except ValueError:
            out.write("usage: limits [show|<name> <value|off>]\n")
            return
        try:
            governor.set_limit(name, value)
        except ValueError as error:
            out.write(str(error) + "\n")
            return
        shown = governor.limits[name]
        out.write(f"limits {name} {'off' if shown is None else shown}\n")
        return
    out.write("usage: limits [show|<name> <value|off>]\n")


def _qlog_command(session: DuelSession, line: str, out) -> None:
    """``qlog on|off`` — strict, like ``trace on|off``.

    Only the exact words ``on``/``off`` flip the mode; ``off`` stashes
    the attached :class:`~repro.obs.qlog.QueryLog` so the session's
    per-query gate stays a single ``is not None`` predicate, and ``on``
    restores it.  Without a configured log (``--query-log FILE``)
    there is nothing to enable, and the command says so.
    """
    parts = line.split()
    if len(parts) != 2 or parts[1] not in ("on", "off"):
        out.write("usage: qlog on|off\n")
        return
    stashed = getattr(session, "_qlog_stashed", None)
    if parts[1] == "on":
        if session.qlog is None:
            if stashed is None:
                out.write("no query log attached "
                          "(start with --query-log FILE)\n")
                return
            session.qlog = stashed
            session._qlog_stashed = None
        out.write("qlog on\n")
    else:
        if session.qlog is not None:
            session._qlog_stashed = session.qlog
            session.qlog = None
        out.write("qlog off\n")


def _metrics_command(session: DuelSession, line: str, out) -> None:
    """``metrics`` (sorted table) or ``metrics export`` (Prometheus)."""
    parts = line.split()
    if len(parts) == 1:
        rows = session.metrics.describe()
        if not rows:
            out.write("(no metrics recorded)\n")
        for row in rows:
            out.write(row + "\n")
        return
    if len(parts) == 2 and parts[1] == "export":
        from repro.obs.exposition import render_prometheus
        out.write(render_prometheus(session.metrics))
        return
    out.write("usage: metrics [export]\n")


def _statements_command(session: DuelSession, line: str, out) -> None:
    """``statements`` / ``statements by <key>`` — per-shape stats.

    Renders the session's :class:`~repro.obs.statements.StatementStats`
    table: one row per normalized query shape (literals bucketed,
    names canonicalized) with call counts and phase latencies — the
    REPL-local view of what ``duel-serve`` exposes fleet-wide.
    """
    from repro.obs.statements import ORDERINGS, describe
    stats = session.statements
    if stats is None:
        out.write("no statement statistics attached\n")
        return
    parts = line.split()
    by = "total_ms"
    if len(parts) == 3 and parts[1] == "by":
        by = parts[2]
    elif len(parts) != 1:
        out.write(f"usage: statements [by {'|'.join(ORDERINGS)}]\n")
        return
    if by not in ORDERINGS:
        out.write(f"usage: statements [by {'|'.join(ORDERINGS)}]\n")
        return
    for row in describe(stats.snapshot(by=by), stats.state()):
        out.write(row + "\n")


def _accesses_command(session: DuelSession, line: str, out) -> None:
    """``accesses <expr>`` — the query's memory-access profile.

    Runs the expression with the access tracer forced on (values are
    produced but not printed) and renders the locality report: access
    and byte counts, scan-pattern classification, stride histogram,
    page locality, and the prefetch advisor's page-cache sweep.
    """
    parts = line.split(None, 1)
    if len(parts) != 2:
        out.write("usage: accesses <expression>\n")
        return
    from repro.obs.access import render_report
    result = session.accesses(parts[1])
    profile = result.get("access")
    if profile is None:
        out.write((result.get("error") or result.get("diagnostic")
                   or f"({result['outcome']}: no accesses recorded)")
                  + "\n")
        return
    for row in render_report(parts[1], profile,
                             result.get("advisor") or [],
                             cache=result.get("cache")):
        out.write(row + "\n")
    if result["outcome"] != "done":
        extra = result.get("diagnostic") or result.get("error")
        if extra:
            out.write(extra + "\n")


def _cache_command(session: DuelSession, line: str, out) -> None:
    """``cache`` — the page cache's live counters and policy.

    Shows the :class:`~repro.target.pagecache.PageCachingBackend`
    statistics accumulated since startup: hit rate, physical traffic,
    residency and the coherence epoch.  With the cache off (the
    default) it says how to turn it on.
    """
    if len(line.split()) != 1:
        out.write("usage: cache\n")
        return
    cache = getattr(session.evaluator, "page_cache", None)
    if cache is None:
        out.write("page cache off (start with --page-cache demand)\n")
        return
    stats = cache.stats()
    out.write(f"page cache: {stats['mode']}, {stats['page_size']}B x "
              f"{stats['capacity']} pages "
              f"({stats['resident_pages']} resident)\n")
    out.write(f"  {stats['cache_hits']} hits / "
              f"{stats['cache_misses']} misses "
              f"({stats['hit_rate'] * 100:.1f}%), "
              f"{stats['cache_evictions']} evictions, "
              f"{stats['cache_flushes']} epoch flushes\n")
    out.write(f"  physical: {stats['physical_reads']} reads, "
              f"{stats['physical_bytes']}B; epoch {stats['epoch']}\n")


def _dump_command(session: DuelSession, line: str, out) -> None:
    """``dump [DIR]`` — write a post-mortem from the flight recorder."""
    parts = line.split()
    if len(parts) > 2:
        out.write("usage: dump [directory]\n")
        return
    if session.recorder is None:
        out.write("no flight recorder (start with --dump-dir DIR)\n")
        return
    directory = parts[1] if len(parts) == 2 else None
    try:
        path = session.recorder.dump("manual dump",
                                     metrics=session.metrics,
                                     governor=session.governor,
                                     dump_dir=directory)
    except (ValueError, OSError) as error:
        out.write(f"dump failed: {error}\n")
        return
    out.write(f"dumped {path}\n")


def _trace_command(session: DuelSession, line: str, out) -> None:
    """``trace on|off`` (strict, like ``symbolic``) or ``trace <expr>``.

    Only the exact words ``on``/``off`` flip the mode — anything else
    is an expression to explain, so a typo like ``trace onn`` can
    never silently toggle tracing.
    """
    parts = line.split(None, 1)
    if len(parts) == 1:
        out.write("usage: trace on|off | trace <expression>\n")
        return
    argument = parts[1].strip()
    if argument in ("on", "off"):
        session.tracing = (argument == "on")
        out.write(f"trace {argument}\n")
        return
    session.explain(argument, out=out)


def run_command(session: DuelSession, text: str, out,
                stats: bool = False) -> None:
    """One duel command: print all values, or the error, never raise.

    Routed through the session's recovering drive, so values produced
    before a mid-query error still appear, failed side-effecting
    queries roll the target back, and truncated queries keep their
    partial output.  With ``stats`` on, a per-query resource footer
    follows the output.
    """
    sink = _CountingOut(out)
    lookups_before = session.lookup_count
    session.duel(text, out=sink)
    if not sink.wrote:
        out.write("(no values)\n")
    if stats:
        governor = session.governor
        lookups = session.lookup_count - lookups_before
        traffic = session.last_query.stats
        out.write(f"[steps={governor.steps}, lookups={lookups}, "
                  f"reads={traffic.get('reads', 0)}, "
                  f"writes={traffic.get('writes', 0)}, "
                  f"calls={traffic.get('calls', 0)}, "
                  f"wall={governor.elapsed_ms():.1f}ms]\n")


class _CountingOut:
    """Write-through stream that remembers whether anything was printed."""

    def __init__(self, inner):
        self.inner = inner
        self.wrote = False

    def write(self, text: str) -> None:
        self.wrote = True
        self.inner.write(text)


def main(argv: Optional[Sequence[str]] = None,
         stdin=None, out=None) -> int:
    """CLI entry point; returns the process exit status."""
    out = out if out is not None else sys.stdout
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DUEL (USENIX '93) over a simulated inferior")
    parser.add_argument("source", nargs="?",
                        help="mini-C program to run, then debug")
    parser.add_argument("--expr", "-e", action="append", default=[],
                        help="evaluate this DUEL expression and exit "
                             "(repeatable)")
    parser.add_argument("--no-symbolic", action="store_true",
                        help="print values without derivations")
    parser.add_argument("--max-steps", type=int, default=None,
                        metavar="N",
                        help="per-query generator-step budget "
                             "(0 disables; default 10000000)")
    parser.add_argument("--deadline-ms", type=int, default=None,
                        metavar="MS",
                        help="per-query wall-clock deadline in ms "
                             "(0 disables; default 30000)")
    parser.add_argument("--max-lines", type=int, default=None,
                        metavar="N",
                        help="per-query output quota in printed values "
                             "(0 disables; default 10000)")
    parser.add_argument("--trace-json", metavar="FILE", default=None,
                        help="trace every query, writing JSONL events "
                             "and per-node spans to FILE")
    parser.add_argument("--query-log", metavar="FILE", default=None,
                        help="write one JSONL lifecycle record per "
                             "query (received/parsed/terminal) to FILE")
    parser.add_argument("--page-cache", default="off",
                        choices=("off", "demand"), metavar="MODE",
                        help="page-granular target read cache: 'off' "
                             "(default; reads pass straight through) "
                             "or 'demand' (cache pages as they are "
                             "touched)")
    parser.add_argument("--page-size", type=int, default=None,
                        metavar="BYTES",
                        help="cache page size in bytes, a power of "
                             "two >= 8 (default 256)")
    parser.add_argument("--page-cache-pages", type=int, default=None,
                        metavar="N",
                        help="cache capacity in pages (default 64)")
    parser.add_argument("--access-trace", metavar="FILE", default=None,
                        help="profile sampled queries' target memory "
                             "accesses (strides, page locality, scan "
                             "pattern) and write one JSONL record per "
                             "profiled query to FILE")
    parser.add_argument("--trace-sample", type=int, default=1,
                        metavar="N",
                        help="observe 1-in-N queries in depth: trace "
                             "them (--trace-json, 'trace on'), profile "
                             "their accesses (--access-trace) and "
                             "record their explain trees (--dump-dir); "
                             "'explain', 'accesses' and profiled "
                             "requests always are, and served "
                             "truncated, faulted, cancelled and slow "
                             "queries always export a request trace "
                             "(default 1 = every query)")
    parser.add_argument("--dump-dir", metavar="DIR", default=None,
                        help="enable the flight recorder; write "
                             "post-mortem JSON dumps into DIR on "
                             "faults, ^C, truncations, or 'dump'")
    parser.add_argument("--metrics-port", type=int, default=None,
                        metavar="PORT",
                        help="serve Prometheus metrics on "
                             "127.0.0.1:PORT/metrics (0 picks a free "
                             "port)")
    serve_group = parser.add_argument_group(
        "query service", "serve DUEL queries over TCP (duel-serve)")
    serve_group.add_argument("--serve", action="store_true",
                             help="run the concurrent query service "
                                  "instead of the REPL")
    serve_group.add_argument("--host", default="127.0.0.1",
                             help="service bind address "
                                  "(default 127.0.0.1)")
    serve_group.add_argument("--port", type=int, default=0,
                             metavar="PORT",
                             help="service port (0 picks a free port, "
                                  "printed on startup)")
    serve_group.add_argument("--workers", type=int, default=4,
                             metavar="N",
                             help="query worker threads (default 4)")
    serve_group.add_argument("--queue-depth", type=int, default=16,
                             metavar="N",
                             help="admitted-query queue bound; beyond "
                                  "it queries get 'rejected: "
                                  "overloaded' (default 16)")
    serve_group.add_argument("--max-clients", type=int, default=32,
                             metavar="N",
                             help="concurrent connection cap "
                                  "(default 32)")
    serve_group.add_argument("--per-client", type=int, default=1,
                             metavar="N",
                             help="in-flight queries allowed per "
                                  "client (default 1)")
    serve_group.add_argument("--drain-timeout", type=float, default=10.0,
                             metavar="SECONDS",
                             help="shutdown drain budget before "
                                  "in-flight queries are cancelled "
                                  "(default 10)")
    serve_group.add_argument("--heartbeat-interval", type=float,
                             default=10.0, metavar="SECONDS",
                             help="ping connections idle this long; "
                                  "0 disables heartbeats (default 10)")
    serve_group.add_argument("--heartbeat-timeout", type=float,
                             default=30.0, metavar="SECONDS",
                             help="reap connections silent this long "
                                  "after a ping (default 30)")
    serve_group.add_argument("--resume-ttl", type=float, default=60.0,
                             metavar="SECONDS",
                             help="how long an abnormally disconnected "
                                  "session stays resumable; 0 disables "
                                  "parking (default 60)")
    serve_group.add_argument("--breaker-threshold", type=int, default=5,
                             metavar="N",
                             help="target faults within the window "
                                  "that trip degraded mode (default 5)")
    serve_group.add_argument("--breaker-window", type=float, default=30.0,
                             metavar="SECONDS",
                             help="sliding fault window feeding the "
                                  "circuit breaker (default 30)")
    serve_group.add_argument("--breaker-cooldown", type=float,
                             default=10.0, metavar="SECONDS",
                             help="how long writes stay rejected "
                                  "before a half-open probe "
                                  "(default 10)")
    serve_group.add_argument("--state-dir", metavar="DIR", default=None,
                             help="crash-only durability: journal "
                                  "session state and committed writes' "
                                  "effects to DIR and checkpoint the "
                                  "target, so a restart with the same "
                                  "DIR recovers parked sessions and "
                                  "re-applies the writes")
    serve_group.add_argument("--journal-fsync", metavar="POLICY",
                             default="interval:1.0",
                             help="journal fsync policy: 'always', "
                                  "'interval:N' (seconds), or 'off' "
                                  "(default interval:1.0; any flushed "
                                  "record survives SIGKILL — fsync "
                                  "only buys power-loss durability)")
    serve_group.add_argument("--checkpoint-interval", type=float,
                             default=30.0, metavar="SECONDS",
                             help="how often the checkpointer freezes "
                                  "the target and writes a durable "
                                  "snapshot, truncating old journal "
                                  "segments; 0 disables periodic "
                                  "checkpoints (default 30)")
    serve_group.add_argument("--commit-writes", action="store_true",
                             help="side-effecting queries that drain "
                                  "to 'done' keep their effects on "
                                  "the shared target (their effects "
                                  "journaled and re-applied on recovery) "
                                  "instead of being rolled back")
    serve_group.add_argument("--slow-ms", type=float, default=None,
                             metavar="MS",
                             help="queries slower than MS total are "
                                  "logged as slow_query events, pinned "
                                  "in the flight recorder, and always "
                                  "trace-exported")
    serve_group.add_argument("--query-log-fsync", action="store_true",
                             help="fsync the --query-log on every "
                                  "terminal record, making the audit "
                                  "log durable across power loss, "
                                  "not just process death")
    parser.add_argument("args", nargs="*", default=[],
                        help="argv for the target program (after --)")
    ns = parser.parse_args(argv)
    if ns.trace_sample < 1:
        out.write("error: trace sample must be >= 1\n")
        return 1

    try:
        program = build_target(ns.source, ns.args, out)
    except (MiniCError, OSError) as error:
        out.write(f"error: {error}\n")
        return 1
    limit_kwargs = {}
    if ns.max_steps is not None:
        limit_kwargs["max_steps"] = ns.max_steps
    if ns.deadline_ms is not None:
        limit_kwargs["deadline_ms"] = ns.deadline_ms
    if ns.max_lines is not None:
        limit_kwargs["max_lines"] = ns.max_lines
    from repro.target.pagecache import parse_policy
    cache_kwargs = {}
    if ns.page_size is not None:
        cache_kwargs["page_size"] = ns.page_size
    if ns.page_cache_pages is not None:
        cache_kwargs["capacity"] = ns.page_cache_pages
    try:
        page_cache = parse_policy(ns.page_cache, **cache_kwargs)
    except ValueError as error:
        out.write(f"error: {error}\n")
        return 1
    ns.page_cache_policy = page_cache
    if ns.serve:
        from repro.serve.server import run_server
        return run_server(ns, program, limit_kwargs, out)
    session = DuelSession(SimulatorBackend(program),
                          symbolic=not ns.no_symbolic,
                          page_cache=page_cache, **limit_kwargs)
    from repro.obs.statements import StatementStats
    session.statements = StatementStats()
    if ns.trace_sample > 1:
        from repro.obs.trace import Sampler
        session.sampler = Sampler(ns.trace_sample)
    # Each resource joins the stack as it opens, so every exit — a
    # setup error below or the end of the session — closes all of them.
    with contextlib.ExitStack() as resources:
        try:
            if ns.trace_json:
                from repro.obs.trace import JsonlSink
                session.trace_sink = JsonlSink(ns.trace_json)
                resources.callback(session.trace_sink.close)
                session.tracing = True
            if ns.query_log:
                from repro.obs.qlog import QueryLog
                session.qlog = QueryLog(ns.query_log)
                resources.callback(session.qlog.close)
            if ns.access_trace:
                from repro.obs.access import AccessLog
                session.accesslog = AccessLog(ns.access_trace)
                resources.callback(session.accesslog.close)
            if ns.dump_dir:
                import os

                from repro.obs.recorder import FlightRecorder
                os.makedirs(ns.dump_dir, exist_ok=True)
                session.recorder = FlightRecorder(dump_dir=ns.dump_dir)
            if ns.metrics_port is not None:
                from repro.obs.exposition import MetricsServer
                server = MetricsServer(session.metrics,
                                       port=ns.metrics_port)
                resources.callback(server.stop)
                port = server.start()
                out.write(f"metrics: http://127.0.0.1:{port}/metrics\n")
        except OSError as error:
            out.write(f"error: {error}\n")
            return 1
        if ns.expr:
            for text in ns.expr:
                out.write(f"duel {text}\n")
                run_command(session, text, out)
            return 0
        if stdin is None and sys.stdin.isatty():  # pragma: no cover
            out.write("DUEL reproduction; 'help' for commands, "
                      "'quit' to exit\n")
        return repl(session, stdin=stdin, out=out)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
