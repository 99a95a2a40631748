#!/usr/bin/env python3
"""The DUEL benchmark: one command, every metric, outputs checked.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload served --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes the
separate traced run that reports the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); the line before
it holds details (tail percentiles, count digest, repeat share).  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
from statistics import fmean
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Generated targets and written-out spans (relative to ROOT).
WORK = os.path.join("perfbench", "work")
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("bulk_scan", "interactive", "served"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- statistics -------------------------------------------------------------

def tail(values) -> tuple[float, int]:
    """The highest whole percentile with at least 10 samples beyond it,
    and that percentile (nearest-rank)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        raise RuntimeError(f"only {n} samples: too few for a tail")
    pct = math.floor(100 * (n - 10) / n)
    return ordered[math.ceil(pct * n / 100) - 1], pct


def end_to_end(records, wall, setups, rss_mb) -> tuple[dict, dict]:
    reads = [r for r in records if not r.query.write]
    writes = [r for r in records if r.query.write]
    read_ms = [r.ms for r in reads]
    write_ms = [r.ms for r in writes]
    tail_ms, tail_pct = tail(read_ms)
    write_tail_ms, write_pct = tail(write_ms)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_ms": (statistics.median(read_ms), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "first_line_p50_ms": (statistics.median(
            r.first_ms for r in reads if r.first_ms is not None), "ms"),
        "throughput_qps": (len(records) / wall, "1/s"),
        "elements_per_s": (sum(r.query.elements for r in reads)
                           / (sum(read_ms) / 1e3), "1/s"),
        "write_p50_ms": (statistics.median(write_ms), "ms"),
        "write_tail_ms": (write_tail_ms, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    shapes: dict = {}
    for r in records:
        shapes.setdefault(r.query.shape, []).append(r.ms)
    info = {"reads": len(reads), "writes": len(writes),
            "shape_p50_ms": {name: round(statistics.median(ms), 3)
                             for name, ms in sorted(shapes.items())},
            "latency_tail_pct": tail_pct, "latency_tail_samples": len(reads),
            "write_tail_pct": write_pct, "write_tail_samples": len(writes),
            "setup_runs_s": setups}
    return metrics, info


def span_ms(record, name: str) -> float:
    return sum(s["ms"] for s in record.profile["spans"] if s["name"] == name)


def layer_metrics(records, recorder, read_bytes, nodes, served, frames,
                  nbytes, rtt_ms) -> dict:
    """Per-layer metrics from the in-process traced leg (``records``,
    ``recorder``) and the profiled served leg (``served``, with its
    frame and byte totals and the median ``ping`` round trip)."""
    queries = len(records)
    lines = sum(r.values for r in records)
    stat = {name: sum(r.stats.get(name, 0) for r in records)
            for name in ("steps", "expand", "symnodes", "lookups", "reads")}
    total = {k: v / 1e6 for k, v in recorder.total_ns.items()}
    own = {k: v / 1e6 for k, v in recorder.self_ns.items()}
    calls = recorder.calls
    closed = recorder.spans_closed
    reads = [r for r in served if not r.query.write]
    writes = [r for r in served if r.query.write]

    def outside_spans(r):
        return r.ms - sum(s["ms"] for s in r.profile["spans"])

    client_ms = fmean(outside_spans(r) for r in served)
    return {
        "parser.ms_per_query": (total["parser"] / queries, "ms"),
        "parser.nodes_per_query": (fmean(nodes), "count"),
        "session.overhead_ms_per_query": (own["query"] / queries, "ms"),
        "eval.steps_per_value": (stat["steps"] / lines, "count"),
        "eval.expand_per_query": (stat["expand"] / queries, "count"),
        "eval.self_ms_per_value": (own["eval"] / lines, "ms"),
        "ops.apply_calls_per_value": (calls["apply_calls"] / lines, "count"),
        "ops.loads_per_value": (calls["loads"] / lines, "count"),
        "ops.self_ms_per_value": (own["ops"] / lines, "ms"),
        "symbolic.nodes_per_value": (stat["symnodes"] / lines, "count"),
        "symbolic.render_ms_per_line": (total["symbolic"] / lines, "ms"),
        "format.ms_per_line": (total["format"] / lines, "ms"),
        "lookup.per_query": (stat["lookups"] / queries, "count"),
        "lookup.ms_per_query": (total["lookup"] / queries, "ms"),
        "backend.reads_per_value": (stat["reads"] / lines, "count"),
        "backend.chain_ms_per_read": (own["chain"] / calls["chain_reads"],
                                      "ms"),
        "memory.ms_per_read": (total["memory"] / calls["memory_reads"], "ms"),
        "memory.bytes_per_read": (read_bytes / calls["memory_reads"],
                                  "count"),
        "snapshot.take_ms": (total["snapshot_take"] / closed["snapshot_take"],
                             "ms"),
        "snapshot.restore_ms": (total["snapshot_restore"]
                                / closed["snapshot_restore"], "ms"),
        "server.admission_wait_ms": (fmean(span_ms(r, "admission_queue")
                                           for r in served), "ms"),
        "server.lock_wait_read_ms": (fmean(span_ms(r, "session_lock")
                                           for r in reads), "ms"),
        "server.lock_wait_write_ms": (fmean(span_ms(r, "session_lock")
                                            for r in writes), "ms"),
        "server.drive_ms": (fmean(span_ms(r, "drive") for r in served), "ms"),
        "server.stream_ms": (fmean(span_ms(r, "stream") for r in served),
                             "ms"),
        "server.unattributed_ms": (client_ms - rtt_ms, "ms"),
        "protocol.frames_per_query": (frames / len(served), "count"),
        "protocol.bytes_per_query": (nbytes / len(served), "count"),
        "client.overhead_ms_per_query": (client_ms, "ms"),
    }


# -- the runs -----------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no DUEL sources at {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    import drive
    import gen

    name = args.workload
    workload = gen.WORKLOADS[name](
        args.seed, os.path.join(WORK, f"{name}-{args.seed}.c"))
    bench = Bench(drive, workload, args.seconds)
    other = gen.WORKLOADS[name](args.seed + 1, workload.target.path)
    if [q.text for q in bench.warm] == [q.text for q in other.warmup()]:
        print("error: another seed gave the same queries", file=sys.stderr)
        return 1
    try:
        metrics = bench.traced(name, args.seed) if args.trace \
            else bench.untraced()
    except RuntimeError as error:
        # A server that never came up, or a run too short for a tail.
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        bench.stop_servers()
    failed = sum(not r.ok for r in bench.checked)
    bench.info["failed_frac"] = failed / len(bench.checked)
    if hasattr(workload, "repeat_share"):
        bench.info["repeat_share"] = round(workload.repeat_share(), 4)
    correct = failed == 0 and not bench.problems
    for problem in bench.problems:
        print(f"error: {problem}", file=sys.stderr)
    print(json.dumps({"workload": name, "seed": args.seed,
                      "trace": args.trace, "info": bench.info}))
    print(json.dumps({
        "correct": correct, "attempted": len(bench.checked),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()}}))
    return 0


class Bench:
    """Set-up, warm-up and measured legs of one workload."""

    def __init__(self, drive, workload, seconds):
        self.drive = drive
        self.workload = workload
        self.warm = workload.warmup()
        self.seconds = seconds
        self.served = workload.streams > 1
        self.checked: list = []       # every record whose output was checked
        self.problems: list = []
        self.info: dict = {}
        self._counts: dict = {}
        self._servers: list = []

    def check(self, records) -> list:
        """Count checks: a query text repeats its first counts exactly."""
        for record in records:
            counts = self.drive.counts_of(record)
            seen = self._counts.setdefault(record.query.text, counts)
            if seen != counts:
                self.problems.append(
                    f"counts of {record.query.text!r} changed: "
                    f"{seen} then {counts}")
        self.checked.extend(records)
        return records

    def warm_up(self, runners) -> list:
        """The mix once through every runner; returns per-query counts."""
        records = [runner.run(q) for runner in runners for q in self.warm]
        self.check(records)
        return [self.drive.counts_of(r) for r in records]

    def measure(self, runners, seconds):
        if len(runners) == 1:
            records, wall = self.drive.run_for(
                runners[0], self.workload.stream(), seconds)
        else:
            records, wall = self.drive.run_clients(
                runners, [self.workload.stream(i)
                          for i in range(len(runners))], seconds)
        return self.check(records), wall

    # -- set-up ----------------------------------------------------------
    def setup_inprocess(self):
        return self.drive.InProcess(self.workload)

    def setup_served(self, profile=False):
        server = self.drive.Server(self.workload, SRC)
        self._servers.append(server)
        return server, [self.drive.Client(server.port, profile)
                        for _ in range(self.workload.streams)]

    def stop_servers(self) -> None:
        """Stop every server subprocess this run started."""
        for server in self._servers:
            server.stop()

    def untraced(self) -> dict:
        setups, digests = [], []
        server = runners = None
        for _ in range(SETUPS):
            if server is not None:
                self.close(server, runners)
            server = runners = None
            gc.collect()
            t0 = perf_counter()
            if self.served:
                server, runners = self.setup_served()
            else:
                runners = [self.setup_inprocess()]
            counts = self.warm_up(runners)
            setups.append(perf_counter() - t0)
            digests.append(hashlib.sha256(
                repr(counts).encode()).hexdigest()[:16])
        if len(set(digests)) != 1:
            self.problems.append(f"warm-up counts differ across set-ups: "
                                 f"{digests}")
        self.info["counts_digest"] = digests[0]
        try:
            records, wall = self.measure(runners, self.seconds)
            rss = server.peak_rss_mb() if self.served else \
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        finally:
            self.close(server, runners)
        metrics, info = end_to_end(records, wall, setups, rss)
        self.info.update(info)
        return metrics

    def close(self, server, runners) -> None:
        if server is not None:
            for client in runners:
                client.close()
            server.stop()

    def traced(self, name: str, seed: int) -> dict:
        """Untraced and traced legs of equal length on the workload's
        own path, plus a leg on the other path: in process for the
        served workload, served for the in-process ones."""
        from layers import MeasuredBackend, Recorder

        from repro.core import nodes as N
        from repro.target.interface import SimulatorBackend

        leg = self.seconds / 3
        inproc = self.setup_inprocess()
        self.warm_up([inproc])
        if self.served:
            server, clients = self.setup_served()
            self.warm_up(clients)
            base, _ = self.measure(clients, leg)
            self.close(server, clients)
        else:
            base, _ = self.measure([inproc], leg)

        recorder = Recorder()
        recorder.install()
        try:
            backend = MeasuredBackend(SimulatorBackend(inproc.program))
            inproc.session = inproc.make_session(backend)
            self.warm_up([inproc])
            recorder.clear()
            backend.read_bytes = 0
            records = []
            stream = self.workload.stream()
            start = perf_counter()
            while not records or perf_counter() - start < leg:
                recorder.query = len(records)
                pushed = recorder.enter("query")
                try:
                    records.append(inproc.run(next(stream)))
                finally:
                    recorder.exit(pushed)
        finally:
            recorder.uninstall()
        self.check(records)
        recorder.write(os.path.join(WORK, f"spans-{name}-{seed}.jsonl"))
        parser = inproc.session.parser
        nodes = [sum(1 for _ in N.walk(parser.parse(r.query.text)))
                 for r in records]

        server, clients = self.setup_served(profile=True)
        try:
            self.warm_up(clients)
            rtt_ms = statistics.median(c.rtt_ms() for c in clients)
            for client in clients:
                client.reader.frames = client.reader.bytes = 0
            served, _ = self.measure(clients, leg)
            frames = sum(c.reader.frames for c in clients)
            nbytes = sum(c.reader.bytes for c in clients)
        finally:
            self.close(server, clients)
        with open(os.path.join(WORK, f"requests-{name}-{seed}.jsonl"),
                  "w") as out:
            for record in served[:2000]:
                out.write(json.dumps({"text": record.query.text,
                                      "wall_ms": record.ms,
                                      "profile": record.profile}) + "\n")

        metrics = layer_metrics(records, recorder, backend.read_bytes, nodes,
                                served, frames, nbytes, rtt_ms)
        traced = served if self.served else records
        untraced_p50 = statistics.median(r.ms for r in base
                                         if not r.query.write)
        traced_p50 = statistics.median(r.ms for r in traced
                                       if not r.query.write)
        metrics["trace.overhead_p50_ms"] = (traced_p50 - untraced_p50, "ms")
        self.info.update({"untraced_p50_ms": untraced_p50,
                          "traced_p50_ms": traced_p50,
                          "traced_queries": len(records),
                          "profiled_queries": len(served),
                          "ping_rtt_ms": rtt_ms})
        return metrics


if __name__ == "__main__":
    sys.exit(main())
