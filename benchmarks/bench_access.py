"""Access-observatory cost on the hot path (the PR 9 <5% gate).

One question, one artifact section: what does an idle memory-access
observatory cost a query that is not sampled?  With ``--access-trace``
on and ``--trace-sample N``, N-1 of every N queries toss the session's
one sampling coin, lose, and run without a tracer: the observatory's
promise is that those queries pay only the coin and a predicate.  This
suite measures that promise on the paper's P3 workload and gates it:

* **plain** — a stock :class:`~repro.DuelSession`, nothing attached.
* **idle** — the same session with an access log attached (writing to
  the null device) and a :class:`~repro.obs.trace.Sampler` that never
  fires on the measured queries.  ``idle/plain`` p50 is the
  off-overhead, gated at ``--max-access-overhead`` (CI: 1.05).
* **access_on** — every query runs fully traced + profiled through
  :meth:`~repro.core.session.DuelSession.accesses`.  Reported for
  honesty, *not* gated: profiling is opt-in (the ``accesses``
  command/op or ``--access-trace`` sampling), never steady-state.

The three sessions interleave one query per round so CPU-frequency
and cache drift cancels in the ratio (same discipline as
``bench_obs_serve.py``).  The report also carries the P3 access
profile and the prefetch advisor's sweep — the artifact records not
just what the observatory costs but what it sees.

Standalone on purpose (argparse, not pytest): CI calls it directly
and keys a job failure off the exit status::

    python benchmarks/bench_access.py --max-access-overhead 1.05
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import DuelSession, SimulatorBackend   # noqa: E402
from repro.bench import workloads                 # noqa: E402
from repro.obs.access import AccessLog            # noqa: E402
from repro.obs.trace import Sampler               # noqa: E402

#: The paper's P3 scaling workload (same as every other suite).
P3_SIZE = 1000
P3_EXPR = f"x[..{P3_SIZE}] !=? 0"


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


def make_session() -> DuelSession:
    return DuelSession(SimulatorBackend(workloads.big_array(P3_SIZE)),
                       symbolic=False)


def make_idle_session(null) -> DuelSession:
    """A session whose observatory is attached but idle: an access log
    on the null device, and a sampler whose coin never comes up on
    the queries this suite runs."""
    session = make_session()
    session.accesslog = AccessLog(null)
    session.sampler = Sampler(10 ** 9)
    return session


def run_once(name: str, session: DuelSession) -> float:
    start = time.perf_counter()
    if name == "access_on":
        result = session.accesses(P3_EXPR)
        outcome = result["outcome"]
    else:
        session.duel(P3_EXPR, out=io.StringIO())
        outcome = "done"
    elapsed = (time.perf_counter() - start) * 1000.0
    if outcome != "done":
        raise RuntimeError(f"bench query {outcome} under {name}")
    return elapsed


def interleaved(queries: int, null) -> dict[str, list[float]]:
    """One query per configuration per round; drift cancels.

    The order rotates each round: ``access_on`` allocates profile
    structures whose collection can land on whichever query runs
    next, and a fixed order would bill that to one configuration
    systematically.
    """
    sessions = {"plain": make_session(),
                "idle": make_idle_session(null),
                "access_on": make_session()}
    for name, session in sessions.items():
        run_once(name, session)                    # warm-up
    timings: dict[str, list[float]] = {name: [] for name in sessions}
    names = list(sessions)
    for round_index in range(queries):
        for offset in range(len(names)):
            name = names[(round_index + offset) % len(names)]
            timings[name].append(run_once(name, sessions[name]))
    return timings


def p3_observatory() -> dict:
    """What the observatory sees on P3: profile + advisor sweep."""
    session = make_session()
    result = session.accesses(P3_EXPR)
    profile = result["access"]
    return {
        "expr": P3_EXPR,
        "pattern": profile["pattern"],
        "reads": profile["reads"],
        "unique_pages": profile["unique_pages"],
        "page_locality": profile["page_locality"],
        "reread_ratio": profile["reread_ratio"],
        "dominant_stride": profile["dominant_stride"],
        "advisor": result["advisor"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="access-observatory hot-path cost on P3")
    parser.add_argument("--queries", type=int, default=60,
                        help="timed queries per configuration "
                             "(default 60)")
    parser.add_argument("--out", default=None,
                        help="also write the report as JSON to PATH")
    parser.add_argument("--max-access-overhead", type=float,
                        default=None, metavar="RATIO",
                        help="fail (exit 1) if idle/plain p50 exceeds "
                             "RATIO (CI: 1.05)")
    ns = parser.parse_args(argv)

    with open(os.devnull, "w") as null:
        timings = interleaved(ns.queries, null)
    configs = {name: quantiles(values)
               for name, values in timings.items()}
    off_overhead = round(configs["idle"]["p50_ms"]
                         / configs["plain"]["p50_ms"], 4)
    on_overhead = round(configs["access_on"]["p50_ms"]
                        / configs["plain"]["p50_ms"], 4)
    report = {
        "schema": "repro-bench-access/20",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workload": P3_EXPR,
        "configs": configs,
        "off_overhead_ratio": off_overhead,
        "profiled_overhead_ratio": on_overhead,
        "observatory": p3_observatory(),
    }
    if ns.out:
        Path(ns.out).write_text(json.dumps(report, indent=2) + "\n")

    for name, entry in configs.items():
        print(f"{name:18} p50={entry['p50_ms']:8.3f}ms "
              f"p95={entry['p95_ms']:8.3f}ms")
    print(f"off-overhead (idle/plain): {off_overhead:.3f}x")
    print(f"profiled overhead (access_on/plain): {on_overhead:.2f}x")
    seen = report["observatory"]
    print(f"P3 observatory: {seen['pattern']}, {seen['reads']} reads, "
          f"{seen['unique_pages']} pages, best advisor "
          f"{seen['advisor'][0]['page_size']}B×"
          f"{seen['advisor'][0]['capacity']} → "
          f"{seen['advisor'][0]['hit_rate'] * 100:.1f}% hits")
    if ns.out:
        print(f"wrote {ns.out}")

    if ns.max_access_overhead is not None \
            and off_overhead > ns.max_access_overhead:
        print(f"FAIL: access off-overhead {off_overhead:.3f}x exceeds "
              f"--max-access-overhead {ns.max_access_overhead:.2f}x",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
