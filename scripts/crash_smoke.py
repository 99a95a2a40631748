#!/usr/bin/env python
"""End-to-end crash smoke of the durable query service (CI job).

Boots ``duel-serve`` as a real subprocess with a ``--state-dir``,
drives concurrent clients through a committed-write workload, then
**SIGKILLs the server mid-workload** — no drain, no destructor, no
goodbye — and restarts it over the same state directory.  The run
proves the crash-only durability layer end to end:

* a **global hang timeout** kills the whole run — recovery that
  wedges is the failure mode this smoke exists to catch, and the
  restart itself must announce readiness within a wall-clock bound;
* every client **resumes its own session** across the restart — the
  resume keys issued by the killed lifetime are honored by the
  recovered one, with every alias bound to the value it had: an
  lvalue alias still names its cell, an rvalue alias defined before
  the increment and a ``#`` index alias keep their values even though
  a checkpoint taken after the increment covers their definitions;
* background readers **ride out the gap** via the client's restart
  window: refused dials during the restart wait instead of burning
  retries, and the same ``duel()`` call completes after recovery;
* committed writes are **exactly-once across the crash**: an
  idempotent increment retried after the restart is answered from
  the recovered cache (``replayed``), the final cell value shows a
  single application, and a cross-restart audit of both lifetimes'
  query logs finds each unique write text executed at most once;
* the recovered lifetime's query log carries the
  ``recover_begin``/``recover_done`` lifecycle records.

Artifacts (both query logs, the outcome summary) land in
``--artifacts`` for CI upload.  Exits 0 on success, 1 with a
diagnostic on any failure.
"""

import argparse
import json
import os
import signal
import socket
import sys
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.serve.chaos import ServerProcess  # noqa: E402
from repro.serve.client import (DuelClient, RetryPolicy,  # noqa: E402
                                ServeError)

CLIENTS = 4
HANG_TIMEOUT = 180.0
#: Seconds between the first lifetime's checkpoints.
CHECKPOINT_INTERVAL = 2.0
RESTART_BOUND = 30.0

PROGRAM = """\
int data[40] = {3, -1, 7, 0, 12, -9, 2, 120, 5, -4,
                1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                -1, -2, -3, -4, -5, -6, -7, -8, -9, -10,
                11, 22, 33, 44, 55, 66, 77, 88, 99, 100};
int main(void) { return 0; }
"""

#: data[i] before the increment, straight from the initializer.
INITIAL = [3, -1, 7, 0]


def fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def arm_hang_timeout(server):
    def explode():
        print(f"FAIL: crash smoke exceeded the {HANG_TIMEOUT:.0f}s "
              "hang timeout", file=sys.stderr)
        try:
            server.terminate()
        except Exception:
            pass
        os._exit(1)

    timer = threading.Timer(HANG_TIMEOUT, explode)
    timer.daemon = True
    timer.start()
    return timer


def free_port():
    """A fixed port so both server lifetimes answer at one address."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def write_text(index):
    """Each client's unique idempotent increment (audit anchor)."""
    return f"data[{index}] = data[{index}] + 7"


def make_client(port, index):
    return DuelClient(
        port=port, client=f"crash{index}", timeout=20.0,
        retry=RetryPolicy(retries=6, base=0.3, factor=1.5,
                          max_backoff=1.0, jitter=0.0),
        restart_window=45.0)


def reader_loop(client, stop, record):
    """Background reads that must ride out the kill + restart."""
    ok = errors = 0
    while not stop.is_set():
        try:
            result = client.duel("data[..5]")
            if result.outcome == "done":
                ok += 1
            time.sleep(0.1)
        except (ServeError, OSError) as error:
            errors += 1
            record["last_error"] = str(error)
    record["reads_ok"] = ok
    record["errors"] = errors


def check_checkpoint_epoch(state_dir):
    """The durable checkpoint must carry the target's memory epoch.

    Page caches (PR 10) invalidate on epoch movement; a recovered
    server restores the checkpoint snapshot and advances past its
    recorded epoch, so no session can ever serve pre-crash cached
    pages.  This guards the serialization side: the ``DUELSNAP1``
    payload inside the newest checkpoint actually records an epoch.
    """
    import pickle
    import zlib

    from repro.serve.journal import StateStore
    from repro.target.snapshot import SNAP_MAGIC

    loaded = StateStore(state_dir, fsync="off").load_checkpoint()
    if loaded is None:
        fail(f"no valid checkpoint found under {state_dir!r}")
    lsn, payload = loaded
    blob = payload.get("snapshot", b"")
    if not blob.startswith(SNAP_MAGIC):
        fail("checkpoint snapshot is not a DUELSNAP1 blob")
    snap = pickle.loads(zlib.decompress(blob[len(SNAP_MAGIC):]))
    epoch = snap.get("epoch")
    if not isinstance(epoch, int) or epoch <= 0:
        fail(f"checkpoint lsn {lsn} snapshot carries no usable "
             f"memory epoch (got {epoch!r})")
    print(f"checkpoint epoch ok: lsn {lsn} snapshot records "
          f"epoch {epoch}")


def check_exactly_once(qlog_paths):
    """Each unique write text drove exactly one execution, across
    every lifetime's audit log (recovery runs no query)."""
    received = []
    server_kinds = {}
    for path in qlog_paths:
        for number, line in enumerate(open(path), 1):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                fail(f"{path}:{number} is not JSON: {error}")
            if record.get("ev") == "server":
                kind = record["kind"]
                server_kinds[kind] = server_kinds.get(kind, 0) + 1
            elif record.get("ev") == "received":
                received.append(record.get("text"))
    for index in range(CLIENTS):
        drives = received.count(write_text(index))
        if drives != 1:
            fail(f"write {write_text(index)!r} executed {drives} "
                 "times across the restart (want exactly 1)")
    for kind in ("recover_begin", "recover_done"):
        if not server_kinds.get(kind):
            fail(f"the recovered lifetime never logged {kind!r}")
    print(f"qlog audit ok: {len(received)} query drives across "
          f"{len(qlog_paths)} lifetimes, server events {server_kinds}")
    return server_kinds


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--artifacts", default="crash-smoke-artifacts",
                        help="directory the run's artifacts land in")
    args = parser.parse_args()
    os.makedirs(args.artifacts, exist_ok=True)
    source = os.path.join(args.artifacts, "prog.c")
    state_dir = os.path.join(args.artifacts, "state")
    qlogs = [os.path.join(args.artifacts, f"queries-life{n}.jsonl")
             for n in (1, 2)]
    with open(source, "w") as handle:
        handle.write(PROGRAM)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", env.get("PYTHONPATH")]))
    port = free_port()
    server = ServerProcess(
        [source, "--serve", "--port", str(port),
         "--state-dir", state_dir, "--commit-writes",
         "--journal-fsync", "interval:1.0",
         "--checkpoint-interval", str(CHECKPOINT_INTERVAL),
         "--query-log", qlogs[0], "--query-log-fsync",
         "--workers", "4", "--max-clients", "16",
         "--heartbeat-interval", "0.5", "--heartbeat-timeout", "5",
         "--resume-ttl", "120"],
        timeout=60.0, env=env)
    timer = arm_hang_timeout(server)
    try:
        server.start()
        print(f"lifetime 1 serving on :{server.port}")

        # Phase A: every client aliases a cell, its value and an
        # index, commits its unique idempotent increment, then starts
        # a background read loop.
        clients, tokens, readers = [], [], []
        stop = threading.Event()
        reader_stats = [dict() for _ in range(CLIENTS)]
        for index in range(CLIENTS):
            client = make_client(port, index)
            token = f"inc-{index}"
            for define in (f"t{index} := data[{index}]",
                           f"r{index} := data[{index}] + 0",
                           f"data[..{index + 1}]#n{index}"):
                if client.duel(define).outcome != "done":
                    fail(f"client {index}: {define!r} failed")
            result = client.duel(write_text(index), idem=token)
            if result.outcome != "done":
                fail(f"client {index}: write outcome {result.outcome!r}")
            clients.append(client)
            tokens.append(token)
            thread = threading.Thread(
                target=reader_loop,
                args=(client, stop, reader_stats[index]))
            thread.start()
            readers.append(thread)
        # Readers mid-flight, and past one checkpoint interval, so a
        # checkpoint taken after the increments covers the defines.
        time.sleep(CHECKPOINT_INTERVAL + 0.5)

        # The crash: SIGKILL, then restart over the same state dir
        # (fresh audit log — the killed lifetime's file stays as
        # evidence), with the readers still hammering.
        server.sigkill()
        print("SIGKILL delivered mid-workload")
        server.args[server.args.index(qlogs[0])] = qlogs[1]
        restart_started = time.monotonic()
        server.restart()
        restart_s = time.monotonic() - restart_started
        print(f"lifetime 2 serving on :{server.port} "
              f"after {restart_s:.2f}s")
        if restart_s > RESTART_BOUND:
            fail(f"restart took {restart_s:.1f}s "
                 f"(bound {RESTART_BOUND:.0f}s)")
        state_lines = [line for line in server.stdout_lines
                       if line.startswith("state:")]
        if not state_lines:
            fail("recovered lifetime never announced its state dir")
        print(state_lines[-1].strip())
        if f"recovered {CLIENTS} sessions" not in state_lines[-1]:
            fail(f"expected {CLIENTS} recovered sessions in "
                 f"{state_lines[-1].strip()!r}")

        # Let every reader ride out the gap: the restart window keeps
        # its refused redials uncharged until the recovered lifetime
        # answers and the client resumes its parked session.
        deadline = time.monotonic() + 60
        while (not all(client.resumed for client in clients)
               and time.monotonic() < deadline):
            time.sleep(0.2)
        stop.set()
        for thread in readers:
            thread.join(timeout=60)
        if any(thread.is_alive() for thread in readers):
            fail("a background reader hung across the restart")

        # Phase B: same client objects, same tokens — the retry must
        # replay from the recovered idempotency cache, the cell must
        # show exactly one increment, and the alias must still bind.
        summary = {}
        for index, client in enumerate(clients):
            if not client.resumed:
                fail(f"client {index} did not resume its session "
                     "across the restart")
            retry = client.duel(write_text(index), idem=tokens[index])
            if retry.outcome != "done":
                fail(f"client {index}: retry outcome "
                     f"{retry.outcome!r}")
            if not retry.replayed:
                fail(f"client {index}: retried token was re-executed, "
                     "not replayed from the recovered cache")
            want = INITIAL[index] + 7
            read = client.duel(f"data[{index}]")
            line = read.lines[-1] if read.lines else ""
            if line != f"data[{index}] = {want}":
                fail(f"client {index}: expected exactly one increment "
                     f"(data[{index}] = {want}), got {line!r}")
            for name, value in ((f"r{index}", INITIAL[index]),
                                (f"n{index}", index)):
                read = client.duel(name)
                got = read.lines[-1] if read.lines else read.error
                if got != f"{name} = {value}":
                    fail(f"client {index}: alias {name} should still be "
                         f"{value} after the restart (got {got!r})")
            alias = client.duel(f"t{index}")
            aline = alias.lines[-1] if alias.lines else ""
            if aline != f"t{index} = {want}":
                fail(f"client {index}: alias lost across restart "
                     f"(got {aline!r})")
            summary[index] = {"resumed": client.resumed,
                              "replayed": retry.replayed,
                              "final": line,
                              "reader": reader_stats[index]}
            client.close()
        print(f"clients ok: {CLIENTS} resumed, {CLIENTS} replayed, "
              "exactly-once increments verified")

        with open(os.path.join(args.artifacts, "outcomes.json"),
                  "w") as handle:
            json.dump({"summary": {str(k): v
                                   for k, v in summary.items()},
                       "restart_s": round(restart_s, 3)},
                      handle, indent=2, sort_keys=True)

        # Clean shutdown of the recovered lifetime (SIGTERM drains).
        server.proc.send_signal(signal.SIGTERM)
        if server.proc.wait(timeout=60) != 0:
            fail(f"recovered server exited with status "
                 f"{server.proc.returncode}")
    finally:
        timer.cancel()
        server.terminate()

    check_checkpoint_epoch(state_dir)
    check_exactly_once(qlogs)
    print("crash smoke: all checks passed")


if __name__ == "__main__":
    main()
