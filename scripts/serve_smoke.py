#!/usr/bin/env python
"""End-to-end smoke of the query service (CI job).

Boots ``duel-serve`` (via ``python -m repro --serve``) as a real
subprocess with the query log and metrics endpoint on, parses the
announced ports, and drives it with **eight concurrent clients** over
real TCP — mixed read-only, side-effecting and runaway queries, plus
one mid-flight cancel — then shuts the server down with SIGINT and
validates everything:

* every client saw the outcomes isolation promises (writes visible to
  themselves only, runaways truncated with partials, cancels keeping
  their partial output);
* the shared query log parses line by line, qids strictly monotone in
  file order with exactly one terminal record per query;
* the live ``/metrics`` scrape shows the serve counters, the
  ``duel_stmt_*`` statement families, and **zero protocol errors**;
* every result carried a server-echoed trace id; a raw-frame probe
  with a client-chosen trace id sees it echoed on *every* frame, and
  the exported ``--trace-json`` span trees contain the full
  ``admission_queue → session_lock → parse → drive → stream`` server
  phases plus engine AST spans;
* the ``statements`` op aggregated the fleet's workload by shape with
  correct per-fingerprint call counts, and ``duel-top --once``
  renders (and ``--once --json`` emits) a snapshot of the live server
  with its locality panel;
* the ``accesses`` wire op classifies the array scan as sequential
  with a multi-page-size prefetch-advisor sweep, and the
  ``--access-trace`` JSONL holds exactly the head-sampled profiles
  plus the two forced probes;
* one coin decides both exports (``--trace-sample``): every access
  profile's trace id is among the exported request traces, and the
  trace export holds exactly the probes, the always-exported
  truncated and cancelled queries, and the sampled queries that
  drained;
* the server drains on SIGINT and reports its served/rejected totals.

Artifacts (query log, scraped metrics, outcome summary) land in
``--artifacts`` for CI upload.  Exits 0 on success, 1 with a
diagnostic on any failure.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.serve.client import DuelClient  # noqa: E402

CLIENTS = 8

#: ``--trace-sample``: every 4th query is observed in depth — engine
#: traced, access-profiled and its request trace exported.
TRACE_SAMPLE = 4

#: The two probes that are observed whatever the coin says: the
#: ``profile: true`` trace probe and the ``accesses`` op.
PROBES = ("data[..5]", "data[..40] !=? 0")

PROGRAM = """\
int data[40] = {3, -1, 7, 0, 12, -9, 2, 120, 5, -4,
                1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                -1, -2, -3, -4, -5, -6, -7, -8, -9, -10,
                11, 22, 33, 44, 55, 66, 77, 88, 99, 100};
int main(void) { return 0; }
"""


def fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def client_worker(port, index, summary):
    """One client's mixed workload; appends its outcomes to summary."""
    outcomes = []
    with DuelClient(port=port, client=f"smoke{index}",
                    timeout=60.0) as client:
        # Read-only query.
        read = client.duel("data[..10]")
        if read.outcome != "done" or len(read.lines) != 10:
            fail(f"client {index}: read came back {read.outcome} "
             f"with {len(read.lines)} lines")
        if not read.trace_id:
            fail(f"client {index}: read result carries no trace id")
        if not read.fingerprint:
            fail(f"client {index}: read result carries no fingerprint")
        outcomes.append(read.outcome)
        # Side-effecting write: visible to itself, then gone.
        write = client.duel(f"data[..10] = {5000 + index}")
        if write.outcome != "done":
            fail(f"client {index}: write came back {write.outcome}")
        again = client.duel("data[..10]")
        if again.lines != read.lines:
            fail(f"client {index}: write leaked into a later read")
        outcomes.extend([write.outcome, again.outcome])
        # Runaway: truncated by the default line budget, with partials.
        runaway = client.duel("data[(1..) % 40]")
        if runaway.outcome != "truncated" or not runaway.lines:
            fail(f"client {index}: runaway came back {runaway.outcome} "
                 f"with {len(runaway.lines)} lines")
        outcomes.append(runaway.outcome)
        # Cancel: issue a long query, cancel after the first values.
        client.limits("lines", 1_000_000)
        request = client.start("data[(1..) % 40]")
        seen = threading.Event()
        box = {}

        def collect():
            box["result"] = client.collect(
                request, on_line=lambda line: seen.set())

        thread = threading.Thread(target=collect)
        thread.start()
        if not seen.wait(timeout=60):
            fail(f"client {index}: cancel target produced no values")
        client.cancel(request)
        thread.join(timeout=60)
        if thread.is_alive():
            fail(f"client {index}: collect hung after cancel")
        cancelled = box["result"]
        if cancelled.outcome != "cancelled" or not cancelled.lines:
            fail(f"client {index}: cancel came back "
                 f"{cancelled.outcome} with {len(cancelled.lines)} lines")
        outcomes.append(cancelled.outcome)
    summary[index] = outcomes


def check_trace_propagation(port):
    """A client-chosen trace id must echo on every frame; the profile
    embed must contain the server phases and engine AST spans."""
    chosen = "smoke-trace-0123"
    with DuelClient(port=port, client="smoketrace",
                    timeout=60.0) as client:
        request = client.start("data[..5]", trace=chosen, profile=True)
        frames = []
        while True:
            frame = client.read_frame()
            if frame is None:
                fail("connection dropped during the trace probe")
            if frame.get("id") != request:
                continue
            frames.append(frame)
            if frame.get("ev") != "value":
                break
    for frame in frames:
        if frame.get("trace") != chosen:
            fail(f"{frame.get('ev')} frame lost the trace id: {frame}")
    terminal = frames[-1]
    if terminal.get("ev") != "done":
        fail(f"trace probe ended {terminal.get('ev')}")
    profile = terminal.get("profile")
    if not profile or profile.get("trace_id") != chosen:
        fail(f"terminal frame has no usable profile: {terminal}")
    phases = {span["name"] for span in profile["spans"]}
    missing = {"admission_queue", "session_lock", "parse", "drive",
               "stream"} - phases
    if missing:
        fail(f"profile is missing server phases {sorted(missing)}")
    if not profile.get("engine_spans"):
        fail("profile carries no engine AST spans")
    print(f"trace probe ok: {len(frames)} frames echoed "
          f"{chosen!r}, phases {sorted(phases)}")


def check_statements(port):
    """The fleet workload must aggregate by shape with exact counts.

    Every client ran the same five queries, so literal bucketing must
    fold them: ``data[..10]``, ``data[..5]`` and the re-read share one
    fingerprint (2 x CLIENTS + 1 probe calls), the write is its own
    shape (CLIENTS calls), and the runaway+cancel pair is one shape
    with CLIENTS truncations.
    """
    with DuelClient(port=port, client="smokestats",
                    timeout=60.0) as client:
        reply = client.statements(by="calls", limit=10)
        health = client.health()
    if not reply.get("enabled"):
        fail("statement statistics are disabled on the server")
    rows = reply["rows"]
    if reply["recorded"] != CLIENTS * 5 + 1:
        fail(f"statements recorded {reply['recorded']} queries, "
             f"expected {CLIENTS * 5 + 1}")
    by_calls = {row["calls"]: row for row in rows}
    reads = by_calls.get(2 * CLIENTS + 1)
    if reads is None or "=" in reads["text"]:
        fail(f"no read shape with {2 * CLIENTS + 1} calls in "
             f"{[(r['text'], r['calls']) for r in rows]}")
    truncated = [row for row in rows
                 if row["truncations"] == CLIENTS]
    if not truncated:
        fail(f"no shape with {CLIENTS} truncations in "
             f"{[(r['text'], r['truncations']) for r in rows]}")
    if health.get("status") != "ok":
        fail(f"health op reported {health.get('status')}")
    for key in ("breaker", "sessions", "watchdog"):
        if key not in health:
            fail(f"health op is missing the {key!r} subsystem")
    print(f"statements ok: {len(rows)} shapes, "
          f"{reply['recorded']} queries aggregated")


def check_traces_file(path, access_records):
    """Exported span trees must be valid JSONL tagged with trace ids,
    sampled by the same coin as the access profiles."""
    records = []
    for number, line in enumerate(open(path), 1):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as error:
            fail(f"{path}:{number} is not JSON: {error}")
    if not records:
        fail("no traces were exported")
    for record in records:
        if record.get("ev") != "request" or not record.get("trace_id"):
            fail(f"malformed trace record: {record}")
    probe = [r for r in records
             if r["trace_id"] == "smoke-trace-0123"]
    if len(probe) != 1:
        fail(f"expected exactly one exported probe trace, "
             f"found {len(probe)}")
    names = {span["name"] for span in probe[0]["spans"]}
    if not {"admission_queue", "drive", "stream"} <= names:
        fail(f"probe trace spans incomplete: {sorted(names)}")
    exported = {record["trace_id"] for record in records}
    orphans = [record["text"] for record in access_records
               if record.get("trace_id") not in exported]
    if orphans:
        fail(f"access profiles without an exported request trace: "
             f"{orphans}")
    # The probes, every truncated runaway and cancelled query (always
    # exported), and the sampled queries that drained.
    sampled_drained = sum(1 for record in access_records
                          if record["text"] not in PROBES
                          and record["outcome"] == "drained")
    expected = len(PROBES) + 2 * CLIENTS + sampled_drained
    if len(records) != expected:
        fail(f"expected {expected} exported traces ({len(PROBES)} "
             f"probes + {2 * CLIENTS} truncated/cancelled + "
             f"{sampled_drained} sampled drained), found {len(records)}")
    print(f"trace export ok: {len(records)} span trees, every access "
          f"profile joined to its trace")


def check_accesses(port):
    """The ``accesses`` wire op must return a classified profile.

    ``data[..40] !=? 0`` is a contiguous int scan: the observatory
    must call it ``sequential``, report its page footprint, and the
    prefetch advisor must sweep at least two page sizes.
    """
    with DuelClient(port=port, client="smokeaccess",
                    timeout=60.0) as client:
        reply = client.accesses("data[..40] !=? 0")
        health = client.health()
    if reply.get("outcome") != "done":
        fail(f"accesses op came back {reply.get('outcome')}: {reply}")
    profile = reply.get("profile") or {}
    if profile.get("pattern") != "sequential":
        fail(f"expected a sequential classification for the array "
             f"scan, got {profile.get('pattern')!r}")
    if profile.get("reads", 0) < 40 or profile.get("unique_pages", 0) < 2:
        fail(f"implausible access profile: {profile}")
    advisor = reply.get("advisor") or []
    page_sizes = {entry.get("page_size") for entry in advisor}
    if len(page_sizes) < 2:
        fail(f"advisor swept {sorted(page_sizes)}, expected >= 2 "
             f"page sizes")
    if any(not 0.0 <= entry.get("hit_rate", -1) <= 1.0
           for entry in advisor):
        fail(f"advisor hit rates out of range: {advisor}")
    served = (health.get("accesses") or {}).get("served")
    if served != 1:
        fail(f"health reports {served} accesses ops, expected 1")
    print(f"accesses op ok: {profile['pattern']}, "
          f"{profile['reads']} reads, {profile['unique_pages']} pages, "
          f"advisor swept {len(advisor)} configurations")


def check_access_trace(path):
    """The ``--access-trace`` JSONL must parse with sane profiles.

    Sampling is counter-based (1-in-``TRACE_SAMPLE`` of the clients'
    queries) and both probes are forced (they toss no coin), so the
    record count is exact whatever the client interleaving was.
    """
    records = []
    for number, line in enumerate(open(path), 1):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as error:
            fail(f"{path}:{number} is not JSON: {error}")
    sampled = CLIENTS * 5 // TRACE_SAMPLE
    expected = sampled + len(PROBES)
    if len(records) != expected:
        fail(f"expected {expected} access records ({sampled} sampled "
             f"+ {len(PROBES)} probes), found {len(records)}")
    for record in records:
        if record.get("ev") != "access":
            fail(f"malformed access record: {record}")
        profile = record.get("profile") or {}
        for key in ("pattern", "reads", "unique_pages",
                    "stride_histogram"):
            if key not in profile:
                fail(f"access profile missing {key!r}: {record}")
        if not record.get("fingerprint"):
            fail(f"access record without fingerprint: {record}")
    probes = [r for r in records if r["text"] == "data[..40] !=? 0"]
    if len(probes) != 1 or probes[0]["profile"]["pattern"] \
            != "sequential":
        fail(f"probe access record wrong: {probes}")
    traced = [r for r in records if r["text"] == "data[..5]"]
    if len(traced) != 1 or traced[0].get("trace_id") != "smoke-trace-0123":
        fail(f"trace probe access record wrong: {traced}")
    print(f"access trace ok: {len(records)} profiles exported, "
          f"1-in-{TRACE_SAMPLE} sampling held")
    return records


def check_duel_top(port, env, artifacts):
    """``duel-top --once`` (rendered and ``--json``) against the live
    server."""
    top = subprocess.run(
        [sys.executable, "-m", "repro.serve.ops",
         "--port", str(port), "--once"],
        capture_output=True, text=True, env=env, timeout=60)
    with open(os.path.join(artifacts, "duel-top.txt"), "w") as handle:
        handle.write(top.stdout)
        if top.stderr:
            handle.write(top.stderr)
    if top.returncode != 0:
        fail(f"duel-top --once exited {top.returncode}: {top.stderr}")
    for needle in ("duel-top", "breaker:", "top shapes by", "calls",
                   "locality:"):
        if needle not in top.stdout:
            fail(f"duel-top output is missing {needle!r}:\n"
                 f"{top.stdout}")
    as_json = subprocess.run(
        [sys.executable, "-m", "repro.serve.ops",
         "--port", str(port), "--once", "--json", "--by", "reads"],
        capture_output=True, text=True, env=env, timeout=60)
    if as_json.returncode != 0:
        fail(f"duel-top --json exited {as_json.returncode}: "
             f"{as_json.stderr}")
    try:
        doc = json.loads(as_json.stdout)
    except json.JSONDecodeError as error:
        fail(f"duel-top --json is not JSON: {error}")
    with open(os.path.join(artifacts, "duel-top.json"), "w") as handle:
        handle.write(as_json.stdout)
    if doc.get("status") != "ok":
        fail(f"duel-top --json reports status {doc.get('status')!r}")
    locality = doc.get("locality") or {}
    if locality.get("accesses", {}).get("served") != 1:
        fail(f"duel-top --json locality counters wrong: {locality}")
    if not locality.get("shapes"):
        fail("duel-top --json carries no profiled shapes")
    if not doc.get("statements", {}).get("rows"):
        fail("duel-top --json carries no statement rows")
    print("duel-top ok: rendered and JSON snapshots agree with "
          "the live server")


def check_query_log(path):
    records = []
    for number, line in enumerate(open(path), 1):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as error:
            fail(f"{path}:{number} is not JSON: {error}")
    received = [r["qid"] for r in records if r["ev"] == "received"]
    if received != sorted(received):
        fail("received qids are not monotone in file order")
    if len(received) != len(set(received)):
        fail("duplicate qids in the query log")
    terminals = {}
    for record in records:
        if record["ev"] not in ("received", "parsed", "server"):
            terminals.setdefault(record["qid"], []).append(record["ev"])
    for qid, events in terminals.items():
        if len(events) != 1:
            fail(f"query {qid} has {len(events)} terminal records: "
                 f"{events}")
    # read, write, re-read, runaway, cancelled per client + the trace
    # probe + the accesses probe
    expected = CLIENTS * 5 + 2
    if len(received) != expected:
        fail(f"expected {expected} queries in the log, found "
             f"{len(received)}")
    for record in records:
        if record["ev"] in ("drained", "truncated", "cancelled"):
            if not record.get("trace_id"):
                fail(f"terminal record without trace_id: {record}")
            if not record.get("fingerprint"):
                fail(f"terminal record without fingerprint: {record}")
    counts = {}
    for events in terminals.values():
        counts[events[0]] = counts.get(events[0], 0) + 1
    if counts.get("drained") != CLIENTS * 3 + 2:
        fail(f"expected {CLIENTS * 3 + 2} drained queries, "
             f"got {counts}")
    if counts.get("truncated") != CLIENTS:
        fail(f"expected {CLIENTS} truncated queries, got {counts}")
    if counts.get("cancelled") != CLIENTS:
        fail(f"expected {CLIENTS} cancelled queries, got {counts}")
    print(f"query log ok: {len(records)} records, {len(received)} "
          f"queries, outcomes {counts}")


def check_metrics(body):
    for needle in ("duel_serve_connections_total",
                   "duel_serve_queries_total",
                   "duel_queries_total",
                   "duel_stmt_calls_total",
                   "duel_stmt_latency_ms",
                   "duel_stmt_table_entries",
                   "duel_target_reads_per_value",
                   "duel_target_page_locality",
                   "duel_target_pattern_total",
                   "duel_target_profiles_total"):
        if needle not in body:
            fail(f"metrics body is missing {needle!r}")
    if 'fingerprint="' not in body:
        fail("statement families carry no fingerprint labels")
    if "duel_serve_protocol_errors_total" in body:
        fail("server counted protocol errors during the smoke")
    if "duel_serve_internal_errors_total" in body:
        fail("server counted internal errors during the smoke")
    print(f"metrics ok: {len(body.splitlines())} exposition lines, "
          f"zero protocol errors")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--artifacts", default="serve-smoke-artifacts",
                        help="directory the run's artifacts land in")
    args = parser.parse_args()
    os.makedirs(args.artifacts, exist_ok=True)
    source = os.path.join(args.artifacts, "prog.c")
    qlog_path = os.path.join(args.artifacts, "queries.jsonl")
    traces_path = os.path.join(args.artifacts, "traces.jsonl")
    access_path = os.path.join(args.artifacts, "accesses.jsonl")
    with open(source, "w") as handle:
        handle.write(PROGRAM)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", env.get("PYTHONPATH")]))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "--serve",
         "--port", "0", "--workers", "4", "--max-clients", "16",
         "--query-log", qlog_path, "--trace-json", traces_path,
         "--access-trace", access_path,
         "--trace-sample", str(TRACE_SAMPLE),
         "--metrics-port", "0", source],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env)
    metrics_url = None
    port = None
    try:
        deadline = time.monotonic() + 30
        while port is None and time.monotonic() < deadline:
            line = process.stdout.readline()
            if not line:
                fail("server exited before announcing its port")
            sys.stdout.write(line)
            if line.startswith("metrics: "):
                metrics_url = line.split()[1]
            elif line.startswith("serving on "):
                port = int(line.rsplit(":", 1)[1])
        if port is None:
            fail("server never announced 'serving on host:port'")
        if metrics_url is None:
            fail("server never announced its metrics endpoint")
        print(f"driving {CLIENTS} concurrent clients against :{port}")

        summary = {}
        threads = [threading.Thread(target=client_worker,
                                    args=(port, index, summary))
                   for index in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        if any(thread.is_alive() for thread in threads):
            fail("a client hung")
        if len(summary) != CLIENTS:
            fail(f"only {len(summary)}/{CLIENTS} clients finished")

        check_trace_propagation(port)
        check_statements(port)
        check_accesses(port)
        check_duel_top(port, env, args.artifacts)

        with urllib.request.urlopen(metrics_url, timeout=10) as response:
            body = response.read().decode()
        with open(os.path.join(args.artifacts, "metrics.prom"),
                  "w") as handle:
            handle.write(body)
        with open(os.path.join(args.artifacts, "outcomes.json"),
                  "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)

        # Graceful drain on SIGINT.
        process.send_signal(signal.SIGINT)
        tail = process.stdout.read()
        sys.stdout.write(tail)
        if process.wait(timeout=60) != 0:
            fail(f"server exited with status {process.returncode}")
        if "draining..." not in tail:
            fail("server never reported draining")
        if f"served {CLIENTS * 5 + 2} queries" not in tail:
            fail(f"server's served count is off: {tail!r}")
    finally:
        if process.poll() is None:
            process.kill()

    check_query_log(qlog_path)
    check_metrics(body)
    check_traces_file(traces_path, check_access_trace(access_path))
    print("serve smoke: all checks passed")


if __name__ == "__main__":
    main()
