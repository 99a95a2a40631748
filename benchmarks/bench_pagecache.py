"""Page-cache effectiveness and off-path cost (the PR 10 gates).

Three questions, one artifact section:

* **Does the cache batch?**  On the paper's P3 scan and the worked
  hash-table scan, the demand page cache must turn the evaluator's
  value-at-a-time logical reads into bulk physical reads — gated at
  ``--min-read-reduction`` (CI: 5×; 125× on P3 and 14.9× on the
  hash scan in practice).
* **Is off really free?**  ``--page-cache off`` does not construct a
  cache at all — the backend chain is byte-identical to a stock
  session.  ``off/stock`` p50 on P3 is gated at
  ``--max-off-overhead`` (CI: 1.05, i.e. <5%).
* **Is it coherent?**  A writer session and demand-cached reader
  sessions share one target: after every committed write the readers
  must see the new value immediately (epoch invalidation), with
  **zero** stale reads tolerated.

The latency configurations interleave one query per round with the
order rotating (same discipline as ``bench_access.py``) so drift
cancels in the ratios.

Standalone on purpose (argparse, not pytest): CI calls it directly
and keys a job failure off the exit status::

    python benchmarks/bench_pagecache.py --min-read-reduction 5 \\
        --max-off-overhead 1.05
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import DuelSession, SimulatorBackend   # noqa: E402
from repro.bench import workloads                 # noqa: E402
from repro.target.pagecache import PageCachePolicy  # noqa: E402

#: The paper's P3 scaling workload plus the worked hash-table scan —
#: both regular scans, the shape the cache exists for.
P3_SIZE = 1000
SCANS = {
    "p3_array": ("big_array", f"x[..{P3_SIZE}] !=? 0"),
    "hash_scan": ("hash", "(hash[..1024] !=? 0)->scope >? 5"),
}

MODES = ("off", "demand")


def quantiles(timings_ms: list[float]) -> dict:
    ordered = sorted(timings_ms)

    def pick(q):
        return round(ordered[min(len(ordered) - 1,
                                 int(q * len(ordered)))], 4)

    return {
        "p50_ms": round(statistics.median(ordered), 4),
        "p95_ms": pick(0.95),
        "min_ms": round(ordered[0], 4),
        "max_ms": round(ordered[-1], 4),
        "queries": len(ordered),
    }


def build_program(spec: str):
    if spec == "big_array":
        return workloads.big_array(P3_SIZE)
    return workloads.build_workload(spec)


def make_session(spec: str, mode: str | None) -> DuelSession:
    kwargs = {}
    if mode is not None:
        kwargs["page_cache"] = mode      # "off" → no cache constructed
    return DuelSession(SimulatorBackend(build_program(spec)),
                       symbolic=False, **kwargs)


def run_once(session: DuelSession, expr: str) -> float:
    start = time.perf_counter()
    session.duel(expr, out=io.StringIO())
    return (time.perf_counter() - start) * 1000.0


def interleaved_latency(queries: int) -> dict[str, list[float]]:
    """P3 latency per configuration, one query per round, rotating.

    ``stock`` is a session built without the ``page_cache`` argument
    at all — the pre-PR-10 construction path — so ``off/stock``
    measures exactly what shipping the knob costs everyone who never
    turns it on.
    """
    spec, expr = SCANS["p3_array"]
    sessions = {"stock": make_session(spec, None),
                "off": make_session(spec, "off"),
                "demand": make_session(spec, "demand")}
    for session in sessions.values():
        run_once(session, expr)                    # warm-up
    timings: dict[str, list[float]] = {name: [] for name in sessions}
    names = list(sessions)
    for round_index in range(queries):
        for offset in range(len(names)):
            name = names[(round_index + offset) % len(names)]
            timings[name].append(run_once(sessions[name], expr))
    return timings


def read_traffic() -> dict:
    """Logical vs. physical reads per workload per mode (cold cache:
    fresh session, one query)."""
    report: dict = {}
    for workload, (spec, expr) in SCANS.items():
        entry: dict = {}
        for mode in MODES:
            session = make_session(spec, mode)
            session.duel(expr, out=io.StringIO())
            stats = session.last_query.stats
            logical = stats.get("reads", 0)
            physical = stats.get("physical_reads", logical)
            entry[mode] = {
                "logical_reads": logical,
                "physical_reads": physical,
                "reduction": round(logical / physical, 2)
                if physical else float(logical),
            }
            cache = session.evaluator.page_cache
            if cache is not None:
                entry[mode]["hit_rate"] = round(cache.hit_rate, 4)
        report[workload] = entry
    return report


def coherence_hammer(writes: int) -> dict:
    """A writer and two cached readers over one shared target.

    Models the serve layer's sharing without its locks (single
    thread, so writes and reads serialize exactly): after every
    write, both readers — each with its own warm page cache — must
    read the new value.  Any stale read is a coherence bug, not a
    tolerance.
    """
    program = build_program("big_array")
    writer = DuelSession(SimulatorBackend(program),
                         page_cache="demand", symbolic=False)
    readers = [DuelSession(SimulatorBackend(program),
                           page_cache=PageCachePolicy(
                               page_size=64, capacity=16),
                           symbolic=False)
               for _ in range(2)]
    for session in readers:                        # warm every cache
        session.duel("x[..64]", out=io.StringIO())
    stale = 0
    reads = 0
    for value in range(1, writes + 1):
        writer.duel(f"x[7] = {value}", out=io.StringIO())
        for session in readers:
            out = io.StringIO()
            session.duel("x[7]", out=out)
            reads += 1
            text = out.getvalue().strip().splitlines()[-1]
            if int(text.split("=")[-1]) != value:
                stale += 1
    flushes = sum(session.evaluator.page_cache.flushes
                  for session in readers)
    return {"writes": writes, "reads": reads, "stale_reads": stale,
            "reader_flushes": flushes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="page-cache read reduction, off-path cost, "
                    "coherence")
    parser.add_argument("--queries", type=int, default=40,
                        help="timed P3 queries per configuration "
                             "(default 40)")
    parser.add_argument("--writes", type=int, default=50,
                        help="coherence-hammer write rounds "
                             "(default 50)")
    parser.add_argument("--out", default=None,
                        help="also write the report as JSON to PATH")
    parser.add_argument("--min-read-reduction", type=float,
                        default=None, metavar="RATIO",
                        help="fail (exit 1) unless every scan "
                             "workload's demand logical/physical "
                             "ratio is at least RATIO (CI: 5)")
    parser.add_argument("--max-off-overhead", type=float, default=None,
                        metavar="RATIO",
                        help="fail (exit 1) if off/stock p50 on P3 "
                             "exceeds RATIO (CI: 1.05)")
    ns = parser.parse_args(argv)

    timings = interleaved_latency(ns.queries)
    configs = {name: quantiles(values)
               for name, values in timings.items()}
    off_overhead = round(configs["off"]["p50_ms"]
                         / configs["stock"]["p50_ms"], 4)
    traffic = read_traffic()
    coherence = coherence_hammer(ns.writes)
    report = {
        "schema": "repro-bench-pagecache/10",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workloads": {name: expr for name, (_, expr) in SCANS.items()},
        "configs": configs,
        "off_overhead_ratio": off_overhead,
        "read_traffic": traffic,
        "coherence": coherence,
    }
    if ns.out:
        Path(ns.out).write_text(json.dumps(report, indent=2) + "\n")

    for name, entry in configs.items():
        print(f"{name:10} p50={entry['p50_ms']:8.3f}ms "
              f"p95={entry['p95_ms']:8.3f}ms")
    print(f"off-path cost (off/stock p50): {off_overhead:.3f}x")
    for workload, entry in traffic.items():
        demand = entry["demand"]
        print(f"{workload}: {entry['off']['logical_reads']} logical → "
              f"{demand['physical_reads']} physical (demand, "
              f"{demand['reduction']:.1f}x)")
    print(f"coherence: {coherence['reads']} cached reads across "
          f"{coherence['writes']} writes, "
          f"{coherence['stale_reads']} stale")
    if ns.out:
        print(f"wrote {ns.out}")

    failed = False
    if coherence["stale_reads"]:
        print(f"FAIL: coherence hammer saw "
              f"{coherence['stale_reads']} stale read(s)",
              file=sys.stderr)
        failed = True
    if ns.min_read_reduction is not None:
        for workload, entry in traffic.items():
            demand = entry["demand"]
            if demand["reduction"] < ns.min_read_reduction:
                print(f"FAIL: {workload} demand read reduction "
                      f"{demand['reduction']:.1f}x under "
                      f"--min-read-reduction "
                      f"{ns.min_read_reduction:.1f}x",
                      file=sys.stderr)
                failed = True
    if ns.max_off_overhead is not None \
            and off_overhead > ns.max_off_overhead:
        print(f"FAIL: page-cache off-overhead {off_overhead:.3f}x "
              f"exceeds --max-off-overhead "
              f"{ns.max_off_overhead:.2f}x", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
