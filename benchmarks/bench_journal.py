"""Durability benchmark: journal overhead + crash-recovery latency.

Three questions, one artifact (``BENCH_7.json``):

1. **What does the durability layer cost when nothing crashes?**  The
   paper's P3 workload runs against two in-process servers: one
   stateless, one journaling to a ``--state-dir`` under the default
   ``fsync=interval:1.0`` policy.  Both servers run *simultaneously*
   and a dedicated client sends one query to each per round, order
   alternating, so machine drift lands on both sides and cancels in
   the ratio (same discipline as ``bench_obs_serve.py``).  Read
   queries never touch the journal, so this measures the machinery's
   presence on the hot path (the extra branch in the session manager,
   the checkpointer thread parked on its event); the p50 ratio is
   gated at ``--max-journal-overhead`` (CI: 1.05 — the journal must
   cost <5% on the query path).

2. **What does one committed write cost?**  A ``--commit-writes``
   loop of distinct single-cell assignments, each journaled inside
   the write lock, reported as a latency distribution (not gated —
   writes buy durability, and the paper's workloads are read-heavy).

3. **How long does recovery take?**  The durable server is crashed
   (journal poisoned, sockets torn) after committing a batch of
   writes; the wall time of booting a fresh server over the same
   state dir — checkpoint load + applying the journaled write deltas
   + session resurrection — is the recovery latency.

Standalone on purpose (argparse, not pytest): CI calls it directly
and keys a job failure off the exit status::

    python benchmarks/bench_journal.py --out BENCH_7.json
    python benchmarks/bench_journal.py --max-journal-overhead 1.05
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

from repro.bench import workloads                          # noqa: E402
from repro.serve.client import DuelClient                  # noqa: E402
from repro.serve.server import DuelServer                  # noqa: E402

#: The paper's P3 scaling workload (same as ``bench_serve.py``).
P3_SIZE = 1000
P3_EXPR = f"x[..{P3_SIZE}] !=? 0"

#: Session shape shared by both server configurations.
SESSION_KWARGS = {"symbolic": False}


def quantiles(timings_ms: list[float]) -> dict:
    ordered = sorted(timings_ms)

    def pick(q):
        return round(ordered[min(len(ordered) - 1,
                                 int(q * len(ordered)))], 4)

    return {
        "p50_ms": round(statistics.median(ordered), 4),
        "p95_ms": pick(0.95),
        "p99_ms": pick(0.99),
        "min_ms": round(ordered[0], 4),
        "max_ms": round(ordered[-1], 4),
    }


def closed_loop(port: int, queries: int, expr=None) -> dict:
    """One client, ``queries`` back-to-back queries."""
    latencies: list[float] = []
    with DuelClient(port=port, client="bench", timeout=120.0) as client:
        client.duel(P3_EXPR)                       # warm-up
        for i in range(queries):
            text = expr(i) if callable(expr) else P3_EXPR
            start = time.perf_counter()
            result = client.duel(text)
            elapsed = (time.perf_counter() - start) * 1000.0
            if result.outcome != "done":
                raise RuntimeError(
                    f"closed loop saw outcome {result.outcome!r}")
            latencies.append(elapsed)
    return {"queries": queries, **quantiles(latencies)}


def make_server(state_dir=None, commit_writes=False) -> DuelServer:
    return DuelServer(workloads.big_array(P3_SIZE),
                      workers=4, queue_depth=32, max_clients=8,
                      per_client=1, heartbeat_interval=0.0,
                      session_kwargs=dict(SESSION_KWARGS),
                      state_dir=state_dir,
                      journal_fsync="interval:1.0",
                      checkpoint_interval=0.0,
                      commit_writes=commit_writes)


def steady_state(queries: int, scratch: Path) -> dict:
    """Stateless vs durable, measured simultaneously.

    One query per configuration per round, order alternating, both
    servers live the whole time — machine drift (frequency scaling,
    GC pauses, noisy neighbours) hits both sides and cancels in the
    ratio instead of being billed to whichever server ran second.
    """
    servers = {"stateless": make_server(None),
               "journaled": make_server(str(scratch / "steady"))}
    timings: dict[str, list[float]] = {label: [] for label in servers}
    try:
        ports = {label: server.start()
                 for label, server in servers.items()}
        clients = {label: DuelClient(port=port,
                                     client=f"bench-{label}",
                                     timeout=120.0)
                   for label, port in ports.items()}
        try:
            for client in clients.values():
                client.duel(P3_EXPR)               # warm-up
            labels = list(clients)
            for round_index in range(queries):
                for offset in range(len(labels)):
                    label = labels[(round_index + offset) % len(labels)]
                    start = time.perf_counter()
                    result = clients[label].duel(P3_EXPR)
                    elapsed = (time.perf_counter() - start) * 1000.0
                    if result.outcome != "done":
                        raise RuntimeError(
                            f"closed loop saw outcome "
                            f"{result.outcome!r}")
                    timings[label].append(elapsed)
        finally:
            for client in clients.values():
                client.close()
    finally:
        for server in servers.values():
            server.stop()
    runs = {label: {"queries": queries, **quantiles(values)}
            for label, values in timings.items()}
    for label, run in runs.items():
        print(f"{label:>9}: p50={run['p50_ms']:8.3f}ms "
              f"p95={run['p95_ms']:8.3f}ms")
    ratio = round(runs["journaled"]["p50_ms"]
                  / runs["stateless"]["p50_ms"], 3)
    return {"stateless": runs["stateless"],
            "journaled": runs["journaled"],
            "ratio": ratio}


def write_cost(writes: int, scratch: Path) -> dict:
    """Committed-write latency under ``--commit-writes``."""
    server = make_server(str(scratch / "writes"), commit_writes=True)
    port = server.start()
    try:
        run = closed_loop(port, writes,
                          expr=lambda i: f"x[{i % P3_SIZE}] = {i}")
        appended = server.store.journal.appended
        fsyncs = server.store.journal.fsyncs
    finally:
        server.stop()
    print(f"   writes: p50={run['p50_ms']:8.3f}ms over {writes} "
          f"committed writes ({appended} journal records, "
          f"{fsyncs} fsyncs)")
    return {**run, "journal_records": appended, "fsyncs": fsyncs}


def recovery(writes: int, scratch: Path) -> dict:
    """Crash after ``writes`` commits; time the restart recovery."""
    state_dir = str(scratch / "recovery")
    server = make_server(state_dir, commit_writes=True)
    port = server.start()
    with DuelClient(port=port, client="bench", timeout=120.0) as client:
        for i in range(writes):
            result = client.duel(f"x[{i % P3_SIZE}] = {i}",
                                 idem=f"w{i}")
            if result.outcome != "done":
                raise RuntimeError(f"write {i}: {result.outcome!r}")
        client._teardown()                 # vanish, keep resumable
    server.simulate_crash()

    start = time.perf_counter()
    recovered = make_server(state_dir, commit_writes=True)
    recovered.start()
    recovery_ms = (time.perf_counter() - start) * 1000.0
    try:
        applied = recovered.applied_writes
        sessions = recovered.recovered_sessions
        if applied != writes:
            raise RuntimeError(
                f"recovery applied {applied} of {writes} writes")
    finally:
        recovered.stop()
        server.stop()
    print(f" recovery: {recovery_ms:8.1f}ms to apply {applied} "
          f"writes and resurrect {sessions} session(s)")
    return {"writes_journaled": writes, "writes_applied": applied,
            "sessions_recovered": sessions,
            "recovery_ms": round(recovery_ms, 2)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="durability benchmark of the query service")
    parser.add_argument("--out", default="BENCH_7.json",
                        help="output path (default BENCH_7.json)")
    parser.add_argument("--queries", type=int, default=120,
                        help="closed-loop queries per configuration "
                             "(default 120)")
    parser.add_argument("--writes", type=int, default=60,
                        help="committed writes for the write-cost and "
                             "recovery phases (default 60)")
    parser.add_argument("--max-journal-overhead", type=float,
                        default=None, metavar="RATIO",
                        help="fail (exit 1) if the journaled p50 "
                             "exceeds RATIO x the stateless p50")
    ns = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-journal-") as scratch:
        overhead = steady_state(ns.queries, Path(scratch))
        writes = write_cost(ns.writes, Path(scratch))
        recovered = recovery(ns.writes, Path(scratch))

    report = {
        "schema": "repro-bench/7",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workload": {"expr": P3_EXPR, "array": P3_SIZE},
        "fsync": "interval:1.0",
        "steady_state": overhead,
        "committed_writes": writes,
        "recovery": recovered,
    }
    Path(ns.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"journal overhead on P3 (interleaved): "
          f"{overhead['ratio']:.2f}x "
          f"(stateless p50 {overhead['stateless']['p50_ms']:.3f}ms, "
          f"journaled p50 {overhead['journaled']['p50_ms']:.3f}ms)")
    print(f"wrote {ns.out}")

    if ns.max_journal_overhead is not None \
            and overhead["ratio"] > ns.max_journal_overhead:
        print(f"FAIL: journal overhead {overhead['ratio']:.2f}x exceeds "
              f"--max-journal-overhead {ns.max_journal_overhead:.2f}x",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
