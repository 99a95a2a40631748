"""Observability cost on the serving path (PR 8's <5% gate).

One question, one artifact section: what does the PR 8 observability
stack — request traces, statement fingerprinting/aggregation, slow
query detection — cost a serving fleet, measured against the PR 7
configuration (no statements table, no trace log) on the paper's P3
workload?  Three server configurations run simultaneously, one
single-query-at-a-time client each, with queries interleaved
round-robin across them so CPU-frequency and cache drift hits every
configuration equally and cancels in the ratio:

* **plain** — ``DuelServer`` with ``statements=None, tracelog=None``:
  the PR 7 serving path, byte-for-byte (trace_ids are still assigned
  and echoed — that is protocol behavior — but no spans are recorded).
* **observed** — statements table aggregating every query, a JSONL
  trace log fed by the one head-sampling coin
  (:class:`~repro.obs.trace.Sampler`, 1-in-``--sample``, default 10,
  the production shape), ``--slow-ms`` armed high enough never to
  fire.
  This is the configuration ``duel --serve`` runs by default and the
  one the gate applies to: ``observed/plain`` p50 must stay under
  ``--max-obs-overhead`` (CI: 1.05).
* **fully_traced** — the same but with no sampler, so every query
  also runs with the engine AST tracer attached and exports its span
  tree.  Reported for honesty, *not* gated: per-node tracing is
  bounded by the PR 3 <2x gate, and nobody samples 100% in steady
  state.

Standalone on purpose (argparse, not pytest): CI calls it directly
and keys a job failure off the exit status::

    python benchmarks/bench_obs_serve.py --max-obs-overhead 1.05
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench import workloads                 # noqa: E402
from repro.obs.reqtrace import TraceLog           # noqa: E402
from repro.obs.statements import StatementStats   # noqa: E402
from repro.obs.trace import Sampler               # noqa: E402
from repro.serve.client import DuelClient         # noqa: E402
from repro.serve.server import DuelServer         # noqa: E402

#: The paper's P3 scaling workload (same as every other suite).
P3_SIZE = 1000
P3_EXPR = f"x[..{P3_SIZE}] !=? 0"

SESSION_KWARGS = {"symbolic": False}


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


def closed_loop(port: int, queries: int) -> list[float]:
    """Single client, ``queries`` back-to-back P3 runs (1 warm-up)."""
    timings = []
    with DuelClient(port=port, client="bench-obs",
                    timeout=120.0) as client:
        client.duel(P3_EXPR)                       # warm-up
        for _ in range(queries):
            start = time.perf_counter()
            result = client.duel(P3_EXPR)
            elapsed = (time.perf_counter() - start) * 1000.0
            if result.outcome != "done":
                raise RuntimeError(f"bench query {result.outcome}")
            timings.append(elapsed)
    return timings


def make_server(statements=None, tracelog=None, sampler=None,
                slow_ms=None):
    return DuelServer(workloads.big_array(P3_SIZE),
                      workers=2, queue_depth=8, max_clients=4,
                      per_client=1, statements=statements,
                      tracelog=tracelog, sampler=sampler, slow_ms=slow_ms,
                      session_kwargs=dict(SESSION_KWARGS))


def interleaved(configs: dict, queries: int) -> dict:
    """Run every config's server at once and round-robin the queries.

    Back-to-back closed loops are unfair on a busy machine: the p50
    drifts several percent between runs from CPU frequency and cache
    state alone, which swamps the microsecond-scale cost being
    measured.  Interleaving one query per config per round means any
    drift hits all configurations equally and cancels in the ratio.
    """
    servers = {name: make_server(**kwargs)
               for name, kwargs in configs.items()}
    timings: dict[str, list[float]] = {name: [] for name in servers}
    clients = {}
    try:
        for name, server in servers.items():
            port = server.start()
            client = DuelClient(port=port, client=f"bench-{name}",
                                timeout=120.0)
            client.connect()
            client.duel(P3_EXPR)                   # warm-up
            clients[name] = client
        for _ in range(queries):
            for name, client in clients.items():
                start = time.perf_counter()
                result = client.duel(P3_EXPR)
                elapsed = (time.perf_counter() - start) * 1000.0
                if result.outcome != "done":
                    raise RuntimeError(
                        f"bench query {result.outcome} on {name}")
                timings[name].append(elapsed)
    finally:
        for client in clients.values():
            try:
                client.close()
            except OSError:
                pass
        for server in servers.values():
            server.stop()
    return timings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="observability overhead on the serving path")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write this suite's JSON section to FILE "
                             "(default: print only; emit_json.py "
                             "--aggregate embeds it in BENCH_8.json)")
    parser.add_argument("--queries", type=int, default=120,
                        help="closed-loop queries per configuration "
                             "(default 120)")
    parser.add_argument("--sample", type=int, default=10, metavar="N",
                        help="head-sampling rate for the observed "
                             "configuration (default 10 = 1-in-10)")
    parser.add_argument("--skip-full-trace", action="store_true",
                        help="skip the ungated 100%%-sampled reference "
                             "run")
    parser.add_argument("--max-obs-overhead", type=float, default=None,
                        metavar="RATIO",
                        help="fail (exit 1) if observed p50 exceeds "
                             "RATIO x plain p50")
    ns = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-obs-") as scratch:
        observed_stats = StatementStats()
        observed_log = TraceLog(Path(scratch) / "observed.jsonl")
        configs = {
            "plain": {},
            "observed": {"statements": observed_stats,
                         "tracelog": observed_log,
                         "sampler": Sampler(ns.sample),
                         "slow_ms": 60_000.0},
        }
        full_log = None
        if not ns.skip_full_trace:
            full_log = TraceLog(Path(scratch) / "full.jsonl")
            configs["fully_traced"] = {"statements": StatementStats(),
                                       "tracelog": full_log,
                                       "slow_ms": 60_000.0}
        timings = interleaved(configs, ns.queries)

    plain = quantiles(timings["plain"])
    observed = quantiles(timings["observed"])
    observed["fingerprints"] = len(observed_stats)
    observed["recorded"] = observed_stats.state()["recorded"]
    observed["traces_exported"] = observed_log.exported
    full = None
    if full_log is not None:
        full = quantiles(timings["fully_traced"])
        full["traces_exported"] = full_log.exported

    ratio = round(observed["p50_ms"] / plain["p50_ms"], 3)
    report = {
        "schema": "repro-bench/8-obs-serve",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workload": {"expr": P3_EXPR, "array": P3_SIZE},
        "sample": ns.sample,
        "plain": plain,
        "observed": observed,
        "ratio": ratio,
    }
    if full is not None:
        report["fully_traced"] = full
        report["fully_traced_ratio"] = round(
            full["p50_ms"] / plain["p50_ms"], 3)
    if ns.out:
        Path(ns.out).write_text(json.dumps(report, indent=2) + "\n")

    print(f"observability overhead on P3 (single client, "
          f"1-in-{ns.sample} sampling): {ratio:.2f}x "
          f"(plain p50 {plain['p50_ms']:.3f}ms, "
          f"observed p50 {observed['p50_ms']:.3f}ms)")
    if full is not None:
        print(f"fully traced (1-in-1, ungated): "
              f"{report['fully_traced_ratio']:.2f}x")
    if ns.out:
        print(f"wrote {ns.out}")

    if ns.max_obs_overhead is not None and ratio > ns.max_obs_overhead:
        print(f"FAIL: observability overhead {ratio:.2f}x exceeds "
              f"--max-obs-overhead {ns.max_obs_overhead:.2f}x",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
