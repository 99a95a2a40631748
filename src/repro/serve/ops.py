"""``duel-top``: a live terminal ops console for a DUEL fleet.

The serve stack already *answers* everything an operator wants to
know — ``stats`` for throughput, ``statements`` for per-query-shape
latency, ``health`` for per-subsystem detail — but answers scattered
across three wire ops are not a picture.  ``duel-top`` polls all
three over one :class:`~repro.serve.client.DuelClient` connection and
renders them as a single refreshing screen, ``top(1)``-style:

* a status header — health word, served/rejected counters, breaker
  state, session-table occupancy, journal position, watchdog
  liveness;
* the top query shapes by total latency (or calls / mean / max via
  ``--by``), straight from the pg_stat_statements-style table;
* a memory-locality panel: the profiled query shapes from the
  statement table (scan pattern, reads per value, accesses per page,
  re-read ratio) plus the server's access-observatory counters;
* a page-cache panel: the configured ``--page-cache`` policy, the
  fleet-wide hit rate and logical-vs-physical read totals, and the
  query shapes the cache is absorbing (per-shape hit rate and
  physical reads per value);
* the slow-query tail: the last queries that tripped ``--slow-ms``,
  each with its trace id so an operator can jump from the console to
  the exported span tree.

No curses, no extra dependencies: the screen redraws with plain ANSI
``clear + home`` escapes, so it works in any terminal and degrades to
sequential frames when piped.  ``--once`` prints a single frame and
exits 0 (healthy/degraded) or 1 (draining / unreachable) — cheap
enough for CI smoke tests and cron probes; ``--once --json`` emits
the same picture as one machine-readable JSON document instead of a
rendered screen, for dashboards and smoke scripts.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from repro.obs.statements import ORDERINGS, describe
from repro.serve.client import DuelClient, ServeError

#: ANSI: clear screen, cursor home.  Emitted only when refreshing.
CLEAR = "\x1b[2J\x1b[H"


def _fmt_age(age: Optional[float]) -> str:
    return "never" if age is None else f"{age:.1f}s ago"


def locality_panel(health: dict, statements: dict,
                   limit: int = 8) -> list[str]:
    """The memory-locality panel lines (pure function, test-friendly).

    Built from the statement rows that carry access profiles
    (``profiles > 0``) plus the health reply's access-observatory
    counters; readable even before any query has been profiled.
    """
    lines = []
    accesses = health.get("accesses") or {}
    rows = [row for row in statements.get("rows", [])
            if row.get("profiles")]
    header = f"locality: {accesses.get('served', 0)} accesses op(s)"
    if accesses.get("exported") is not None:
        header += (f", {accesses['exported']} profile(s) exported "
                   f"(1-in-{accesses.get('sample', 1)} sampling)")
    lines.append(header)
    if not rows:
        lines.append("  no profiled shapes yet — run 'accesses <expr>' "
                     "or start the server with --access-trace")
        return lines
    rows.sort(key=lambda r: r.get("reads", 0), reverse=True)
    lines.append(f"  {'pattern':<13}{'rd/val':>8}{'acc/page':>10}"
                 f"{'re-read':>9}{'pages/call':>12}  shape")
    for row in rows[:limit]:
        rpv = row.get("reads_per_value")
        if rpv is None:
            values = row.get("values", 0)
            reads = row.get("reads", 0)
            rpv = round(reads / values, 2) if values else float(reads)
        lines.append(
            f"  {row.get('pattern', '?'):<13}{rpv:>8.1f}"
            f"{row.get('page_locality', 0.0):>10.1f}"
            f"{row.get('reread_ratio', 0.0) * 100:>8.1f}%"
            f"{row.get('pages_per_call', 0.0):>12.1f}  "
            f"{row.get('text', '')}")
    return lines


def cache_panel(health: dict, statements: dict,
                limit: int = 4) -> list[str]:
    """The page-cache panel lines (pure function, test-friendly).

    The health reply's ``cache`` section — policy, fleet-wide hit
    rate, logical vs. physical read totals — plus the statement
    shapes that ran cached, so an operator sees at a glance which
    query shapes the cache is (or is not) absorbing.
    """
    cache = health.get("cache") or {}
    policy = cache.get("policy", "off")
    if policy == "off":
        return ["page cache: off (start the server with "
                "--page-cache demand)"]
    lines = [f"page cache: {policy}, {cache.get('page_size', '?')}B × "
             f"{cache.get('capacity', '?')} pages — "
             f"{cache.get('hit_rate', 0.0) * 100:.1f}% hits "
             f"({cache.get('hits', 0)} hits / "
             f"{cache.get('misses', 0)} misses, "
             f"{cache.get('evictions', 0)} evictions)"]
    logical = cache.get("logical_reads", 0)
    physical = cache.get("physical_reads", 0)
    saved = (f", {logical / physical:.1f}x fewer reads"
             if physical else "")
    lines.append(f"  reads: {logical} logical → {physical} physical"
                 f"{saved}")
    rows = [row for row in statements.get("rows", [])
            if row.get("cached_calls")]
    if rows:
        rows.sort(key=lambda r: r.get("physical_reads", 0), reverse=True)
        lines.append(f"  {'hit rate':>9}{'rd/val':>8}{'phys/val':>10}"
                     "  shape")
        for row in rows[:limit]:
            values = row.get("values", 0)
            rpv = row.get("reads_per_value")
            if rpv is None:
                reads = row.get("reads", 0)
                rpv = reads / values if values else float(reads)
            ppv = row.get("physical_reads_per_value")
            if ppv is None:
                physical = row.get("physical_reads", 0)
                ppv = physical / values if values else float(physical)
            lines.append(
                f"  {row.get('cache_hit_rate', 0.0) * 100:>8.1f}%"
                f"{rpv:>8.1f}{ppv:>10.1f}  {row.get('text', '')}")
    return lines


def json_doc(health: dict, statements: dict, target: str,
             by: str = "total_ms") -> dict:
    """One machine-readable console frame (``--once --json``).

    The same two wire replies the rendered screen uses, reshaped into
    a single JSON document: server health, the statement table, and a
    ``locality`` section holding the access-observatory counters plus
    only the profiled shapes (the rows a dashboard's locality panel
    actually plots).
    """
    health = {key: value for key, value in health.items()
              if key not in ("ev", "id")}
    statements = {key: value for key, value in statements.items()
                  if key not in ("ev", "id")}
    return {
        "target": target,
        "status": health.get("status", "?"),
        "by": by,
        "health": health,
        "statements": statements,
        "locality": {
            "accesses": health.get("accesses") or {},
            "shapes": [row for row in statements.get("rows", [])
                       if row.get("profiles")],
        },
        "cache": health.get("cache") or {},
    }


def render(health: dict, statements: dict, target: str,
           by: str = "total_ms", slow_limit: int = 8) -> str:
    """One console frame from the two wire replies, as a string.

    Pure function of its inputs — the tests feed it canned dicts and
    assert on the lines, no server required.
    """
    lines = []
    status = health.get("status", "?")
    breaker = health.get("breaker", {})
    sessions = health.get("sessions", {})
    watchdog = health.get("watchdog", {})
    lines.append(f"duel-top — {target} — {status}  "
                 f"(served {health.get('served', 0)}, "
                 f"rejected {health.get('rejected', 0)})")
    lines.append(f"sessions: {sessions.get('active', 0)} active, "
                 f"{sessions.get('parked', 0)} parked, "
                 f"{sessions.get('clients', 0)} clients, "
                 f"{sessions.get('inflight', 0)} in flight, "
                 f"{sessions.get('queued', 0)} queued")
    lines.append(f"breaker:  {breaker.get('state', '?')} "
                 f"(trips {breaker.get('trips', 0)}, "
                 f"rejections {breaker.get('rejections', 0)}, "
                 f"threshold {breaker.get('threshold', '?')}"
                 f"/{breaker.get('window_s', '?')}s)")
    lines.append(f"watchdog: swept "
                 f"{_fmt_age(watchdog.get('last_sweep_age_s'))} "
                 f"(reaped {watchdog.get('reaped', 0)}, "
                 f"hard cancels {watchdog.get('hard_cancels', 0)}, "
                 f"workers lost {watchdog.get('workers_lost', 0)})")
    journal = health.get("journal")
    if journal is not None:
        lines.append(f"journal:  lsn {journal.get('lsn', 0)}, "
                     f"{journal.get('segments', 0)} segment(s), "
                     f"{journal.get('checkpoints', 0)} checkpoint(s)")
    exported = health.get("traces_exported")
    if exported is not None:
        lines.append(f"traces:   {exported} exported")
    lines.append("")
    if statements.get("enabled"):
        state = {key: statements.get(key, 0)
                 for key in ("entries", "capacity", "evicted", "recorded")}
        lines.append(f"top shapes by {by}:")
        lines.extend(describe(statements.get("rows", []), state))
    else:
        lines.append("statement statistics disabled on this server")
    lines.append("")
    lines.extend(locality_panel(health, statements))
    lines.append("")
    lines.extend(cache_panel(health, statements))
    slow = health.get("slow_queries") or []
    lines.append("")
    if slow:
        lines.append(f"slow queries (last {min(len(slow), slow_limit)}):")
        for entry in slow[-slow_limit:]:
            lines.append(f"  {entry.get('wall_ms', 0):>9.1f}ms "
                         f"{entry.get('outcome', '?'):<9} "
                         f"trace={entry.get('trace_id', '?')}  "
                         f"{entry.get('text', '')}")
    else:
        lines.append("slow queries: none")
    return "\n".join(lines) + "\n"


def snapshot(client: DuelClient, by: str = "total_ms",
             limit: int = 20) -> tuple[dict, dict]:
    """Poll the two ops one frame needs (health carries the slow tail)."""
    return client.health(), client.statements(by=by, limit=limit)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="duel-top",
        description="live ops console for a DUEL query service")
    parser.add_argument("--host", default="127.0.0.1",
                        help="service address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, required=True,
                        help="service port")
    parser.add_argument("--interval", type=float, default=2.0,
                        metavar="SECONDS",
                        help="refresh period (default 2.0)")
    parser.add_argument("--by", default="total_ms", choices=ORDERINGS,
                        help="statement table ordering "
                             "(default total_ms)")
    parser.add_argument("--limit", type=int, default=20, metavar="N",
                        help="statement rows shown (default 20)")
    parser.add_argument("--once", action="store_true",
                        help="print one frame and exit (for scripts "
                             "and CI; exit 1 when draining or "
                             "unreachable)")
    parser.add_argument("--json", action="store_true",
                        help="with --once: emit one machine-readable "
                             "JSON document (health + statements + "
                             "locality) instead of the rendered screen")
    ns = parser.parse_args(argv)
    if ns.json and not ns.once:
        parser.error("--json requires --once")
    out = sys.stdout
    target = f"{ns.host}:{ns.port}"
    try:
        client = DuelClient(host=ns.host, port=ns.port)
        client.connect()
    except (OSError, ServeError) as error:
        sys.stderr.write(f"duel-top: cannot reach {target}: {error}\n")
        return 1
    try:
        while True:
            try:
                health, statements = snapshot(client, by=ns.by,
                                              limit=ns.limit)
            except (OSError, ServeError) as error:
                sys.stderr.write(f"duel-top: lost {target}: {error}\n")
                return 1
            if ns.json:
                out.write(json.dumps(json_doc(health, statements,
                                              target, by=ns.by)) + "\n")
                return 1 if health.get("status") == "draining" else 0
            frame = render(health, statements, target, by=ns.by)
            if ns.once:
                out.write(frame)
                return 1 if health.get("status") == "draining" else 0
            out.write(CLEAR + frame)
            out.flush()
            time.sleep(ns.interval)
    except KeyboardInterrupt:     # pragma: no cover - interactive exit
        return 0
    finally:
        try:
            client.close()
        except OSError:           # pragma: no cover - teardown race
            pass


if __name__ == "__main__":        # pragma: no cover
    raise SystemExit(main())
