"""Emit benchmark profiles as a machine-readable artifact.

Runs a fixed set of paper workloads against the generator engine and
writes per-workload latency quantiles (p50/p95 over repeated runs),
generator step counts, and target-read counts as JSON — the
``BENCH_3.json`` artifact CI uploads so profile regressions can be
diffed across commits instead of eyeballed in pytest-benchmark
tables.  The P3 workload is additionally run with a tracer attached;
the ratio of traced to untraced p50 latency is the *trace overhead*,
gated at ``--max-trace-overhead`` (CI default: 2.0).

**The bench artifact convention.**  Each PR that changes a perf
surface commits one ``BENCH_<PR>.json`` at the repo root, named by
the PR that introduced it and carrying ``"schema": "repro-bench/<PR>"``.
Early PRs emitted per-suite artifacts from their own scripts
(``bench_serve.py``, ``bench_chaos.py``, ``bench_journal.py``) and
some were never committed — CHANGES.md records BENCH_5/BENCH_7 that
exist nowhere, so the perf trajectory had silent holes.  From PR 8 on
the committed artifact is the **aggregate**: ``--aggregate`` runs
*every* suite (core profiles + serve + chaos + journal + obs-serve)
and embeds each suite's full report under ``"suites"``, so one file
per PR carries the whole perf story and a missing suite is a loud
KeyError in CI rather than a quietly absent file.  PR 9 adds the
``access`` suite (the memory-observatory off-overhead gate).

Usage::

    python benchmarks/emit_json.py --out BENCH_3.json     # core only
    python benchmarks/emit_json.py --workload p3_array --repeats 15
    python benchmarks/emit_json.py --max-trace-overhead 2.0  # exit 1 on breach
    python benchmarks/emit_json.py --aggregate --out BENCH_10.json
    python benchmarks/emit_json.py --aggregate --quick    # CI smoke

Standalone on purpose (argparse, not pytest): CI calls it directly and
keys a job failure off the exit status.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import DuelSession, SimulatorBackend          # noqa: E402
from repro.bench import workloads                        # noqa: E402
from repro.obs.trace import QueryTracer, RingBufferSink  # noqa: E402

#: name -> (session builder arg, query).  ``p3_array`` is the paper's
#: P3 scaling query; the rest are the worked-session shapes.
PROFILES = {
    "p3_array": ("big_array:1000", "x[..1000] !=? 0"),
    "hash_scan": ("hash", "(hash[..1024] !=? 0)->scope >? 5"),
    "hash_chase": ("hash", "hash[0]-->next->scope"),
    "head_walk": ("head_list", "head-->next->value"),
    "tree_dfs": ("tree", "#/(root-->(left,right))"),
    "constants": ("empty", "(1..3)+(5,9)"),
}

TRACED_PROFILE = "p3_array"


def build_session(spec: str) -> DuelSession:
    if spec == "empty":
        from repro.target.program import TargetProgram
        return DuelSession(SimulatorBackend(TargetProgram()),
                           symbolic=False)
    if spec.startswith("big_array:"):
        n = int(spec.split(":", 1)[1])
        return DuelSession(SimulatorBackend(workloads.big_array(n)),
                           symbolic=False)
    return DuelSession(SimulatorBackend(workloads.build_workload(spec)),
                       symbolic=False)


def time_runs(fn, repeats: int) -> list[float]:
    """Wall-clock milliseconds of ``fn()`` over ``repeats`` runs
    (after one warm-up run)."""
    fn()
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        timings.append((time.perf_counter() - start) * 1000.0)
    return timings


def quantiles(timings: list[float]) -> dict:
    ordered = sorted(timings)
    return {
        "p50_ms": round(statistics.median(ordered), 4),
        "p95_ms": round(ordered[min(len(ordered) - 1,
                                    int(0.95 * len(ordered)))], 4),
        "min_ms": round(ordered[0], 4),
        "runs": len(ordered),
    }


def profile_workload(name: str, repeats: int) -> dict:
    spec, expr = PROFILES[name]
    session = build_session(spec)
    timings = time_runs(lambda: session.eval(expr), repeats)
    # One counted run for the resource profile.
    backend = session.evaluator.backend
    reads_before = backend.reads
    values = session.eval(expr)
    entry = {
        "workload": name,
        "expr": expr,
        "values": len(values),
        "steps": session.governor.steps,
        "target_reads": backend.reads - reads_before,
        **quantiles(timings),
    }
    return entry


def trace_overhead(repeats: int) -> dict:
    """Traced vs untraced p50 on the P3 workload (same session shape
    the ``bench_trace.py`` smoke uses)."""
    spec, expr = PROFILES[TRACED_PROFILE]
    plain = build_session(spec)
    traced = build_session(spec)
    node = traced.compile(expr)

    def run_traced():
        traced.evaluator.reset()
        tracer = QueryTracer(RingBufferSink())
        tracer.begin(node, expr)
        traced.evaluator.set_tracer(tracer)
        try:
            return list(traced.evaluator.eval(node))
        finally:
            tracer.finish()
            traced.evaluator.set_tracer(None)

    plain_ms = statistics.median(
        time_runs(lambda: plain.eval(expr), repeats))
    traced_ms = statistics.median(time_runs(run_traced, repeats))
    return {
        "workload": TRACED_PROFILE,
        "expr": expr,
        "untraced_p50_ms": round(plain_ms, 4),
        "traced_p50_ms": round(traced_ms, 4),
        "overhead_ratio": round(traced_ms / plain_ms, 3),
    }


#: The aggregate's suite registry: section name -> (module in this
#: directory, default argv, quick argv for CI smoke runs).  A new
#: bench suite earns its place in BENCH_<PR>.json by adding one row.
SUITES = {
    "serve": ("bench_serve",
              ["--clients", "1", "--clients", "4", "--queries", "80",
               "--repeats", "20", "--max-serve-overhead", "1.25"],
              ["--clients", "1", "--queries", "8", "--repeats", "3"]),
    "chaos": ("bench_chaos",
              ["--queries", "80", "--trials", "10",
               "--max-guard-overhead", "1.05"],
              ["--queries", "8", "--trials", "2"]),
    "journal": ("bench_journal",
                ["--queries", "80", "--writes", "40",
                 "--max-journal-overhead", "1.05"],
                ["--queries", "8", "--writes", "4"]),
    "obs_serve": ("bench_obs_serve",
                  ["--queries", "60", "--max-obs-overhead", "1.05"],
                  ["--queries", "6", "--skip-full-trace"]),
    "access": ("bench_access",
               ["--queries", "60", "--max-access-overhead", "1.05"],
               ["--queries", "6"]),
}


def aggregate(ns) -> int:
    """Run every suite and write one combined artifact (``--aggregate``).

    Each suite keeps its own standalone CLI for CI gating; here each
    is invoked in-process with its ``--out`` pointed at a scratch
    file, and the parsed report becomes one section under ``suites``.
    A suite that fails (nonzero exit) fails the aggregate — no
    silently missing sections.
    """
    import importlib
    import tempfile

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    names = ns.workload or sorted(PROFILES)
    suites = {"core": {
        "schema": "repro-bench/3",
        "workloads": [profile_workload(name,
                                       3 if ns.quick else ns.repeats)
                      for name in names],
        "trace": trace_overhead(3 if ns.quick else ns.repeats),
    }}
    overhead = suites["core"]["trace"]["overhead_ratio"]
    if ns.max_trace_overhead is not None \
            and overhead > ns.max_trace_overhead:
        print(f"FAIL: trace overhead {overhead:.2f}x exceeds "
              f"--max-trace-overhead {ns.max_trace_overhead:.2f}x",
              file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory(prefix="bench-agg-") as scratch:
        for section, (module_name, argv, quick_argv) in SUITES.items():
            module = importlib.import_module(module_name)
            out = Path(scratch) / f"{section}.json"
            args = list(quick_argv if ns.quick else argv)
            print(f"--- {section} ({module_name}) ---")
            status = module.main(["--out", str(out), *args])
            if status != 0:
                print(f"FAIL: suite {section} exited {status}",
                      file=sys.stderr)
                return status
            suites[section] = json.loads(out.read_text())
    report = {
        "schema": "repro-bench/10",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "quick": bool(ns.quick),
        "suites": suites,
    }
    Path(ns.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {ns.out} ({len(suites)} suites)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="emit benchmark profiles as JSON")
    parser.add_argument("--out", default=None,
                        help="output path (default BENCH_3.json, or "
                             "BENCH_10.json with --aggregate)")
    parser.add_argument("--workload", action="append", default=[],
                        choices=sorted(PROFILES),
                        help="profile only these workloads (repeatable; "
                             "default: all)")
    parser.add_argument("--repeats", type=int, default=11,
                        help="timed runs per workload (default 11)")
    parser.add_argument("--aggregate", action="store_true",
                        help="run every bench suite (core + serve + "
                             "chaos + journal + obs-serve + access) "
                             "and write one combined artifact")
    parser.add_argument("--quick", action="store_true",
                        help="with --aggregate: minimal run counts, "
                             "for smoke-testing the harness itself")
    parser.add_argument("--max-trace-overhead", type=float, default=None,
                        metavar="RATIO",
                        help="fail (exit 1) if traced/untraced p50 on "
                             "the P3 workload exceeds RATIO")
    ns = parser.parse_args(argv)

    if ns.aggregate:
        if ns.out is None:
            ns.out = "BENCH_10.json"
        return aggregate(ns)
    if ns.out is None:
        ns.out = "BENCH_3.json"
    names = ns.workload or sorted(PROFILES)
    report = {
        "schema": "repro-bench/3",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workloads": [profile_workload(name, ns.repeats)
                      for name in names],
        "trace": trace_overhead(ns.repeats),
    }
    Path(ns.out).write_text(json.dumps(report, indent=2) + "\n")

    for entry in report["workloads"]:
        print(f"{entry['workload']:12} p50={entry['p50_ms']:8.3f}ms "
              f"p95={entry['p95_ms']:8.3f}ms steps={entry['steps']:7} "
              f"reads={entry['target_reads']}")
    overhead = report["trace"]["overhead_ratio"]
    print(f"trace overhead on {TRACED_PROFILE}: {overhead:.2f}x")
    print(f"wrote {ns.out}")

    if ns.max_trace_overhead is not None \
            and overhead > ns.max_trace_overhead:
        print(f"FAIL: trace overhead {overhead:.2f}x exceeds "
              f"--max-trace-overhead {ns.max_trace_overhead:.2f}x",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
