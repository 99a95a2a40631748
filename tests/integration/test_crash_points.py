"""Integration: recovery is right at every crash point.

The all-crash-states check of Pillai et al., "All File Systems Are Not
Created Equal" (OSDI 2014), for the ``--state-dir`` journal.  A seeded
multi-session script drives a durable server: writes, defines and
redefines of lvalue, rvalue and ``#`` aliases, a declaration,
idempotent retries, a closed session and a checkpoint.  After every
journal append the state dir is copied as it stands on disk — what a
SIGKILL at that moment would leave — next to the state recovery must
rebuild from it: the target, each session's alias values and its
idempotency cache.  Each copy is then recovered in process (a fresh
server over it runs the recovery its ``start`` runs before binding,
and is disposed of with ``simulate_crash``) and compared:

* cut after append ``k`` → the state recorded at ``k``;
* cut in the middle of append ``k + 1`` (a torn record) → the state
  recorded at ``k``;
* cut between the checkpoint's rename and the truncation of the
  journal segments it covers → the state the checkpoint froze.
"""

import json
import os
import random
import shutil
import time

import pytest

from repro.bench import workloads
from repro.serve.client import DuelClient, RetryPolicy
from repro.serve.server import DuelServer
from repro.target import snapshot

ARRAY = 64


def durable_server(state_dir, hook=None):
    return DuelServer(
        workloads.big_array(ARRAY), state_dir=str(state_dir), workers=2,
        queue_depth=8, max_clients=8, per_client=1, drain_timeout=5.0,
        heartbeat_interval=0.0, resume_ttl=600.0, journal_fsync="off",
        checkpoint_interval=0.0, commit_writes=True,
        journal_sync_hook=hook)


def script(seed):
    """Three sessions' steps: ``(session, text, idem token)``, plus
    ``"checkpoint"`` and ``(session, "close")``."""
    rng = random.Random(seed)
    c0, c1, c2, c3, c4 = rng.sample(range(1, ARRAY), 5)
    v = [rng.randint(-999, 999) for _ in range(6)]
    a, b, c = rng.sample(range(3), 3)
    return [
        (a, f"p := x[{c0}]", None),                      # lvalue alias
        (b, f"q := x[{c1}] + {v[0]}", None),             # rvalue alias
        (a, f"x[{c0}] = {v[1]}", "w1"),                  # write
        (c, f"x[..{rng.randint(2, 9)}]#k", None),        # index alias
        (b, f"int j; j = {v[2]}", "w2"),                 # declaration
        (a, f"x[{c0}] = {v[1]}", "w1"),                  # retry: cached
        "checkpoint",
        (b, f"q := x[{c0}] * 2", None),                  # redefine
        (c, f"r := x[{c2}], x[{c2}] = r + {v[3]}", "w3"),
        (a, f"p := x[{c3}]", None),                      # redefine
        (c, f"s := {v[4]}; x[{c4}] = x[200000000]", "w4"),   # faults
        (b, f"x[{c1}]++, j = q", "w5"),
        (b, f"x[{c1}]++, j = q", "w5"),                  # retry: cached
        (c, "close"),
        (a, f"x[{c4}] = p + {v[5]}", None),
    ]


def rendered(value):
    return (value.ctype.name(), value.address, value.value,
            value.bit_offset, value.bit_width, value.sym.render())


def observe(server):
    """What recovery must rebuild: target contents and bookkeeping,
    and per resume key the alias values and completed idem entries."""
    snap = snapshot.take(server.sessions.program)
    state = snap.state
    target = {
        "regions": [(name, base, size, bytes(prefix).rstrip(b"\0"))
                    for name, base, size, prefix in snap.regions],
        "heap": state["heap"],
        "globals": sorted((name, symbol.address, symbol.ctype.name())
                          for name, symbol in state["globals"].items()),
        "marks": (state["data_next"], state["text_next"]),
        "output": state["output"],
    }
    sessions = {
        entry["key"]: {
            "aliases": {name: rendered(value)
                        for name, value in entry["aliases"].items()},
            "idem": json.dumps(entry["idem"], sort_keys=True)}
        for entry in server.sessions.export_state()}
    return {"target": target, "sessions": sessions}


class Recorder:
    """The journal's sync hook: runs inside every append, after the
    record reached the OS, so the copy is the on-disk crash state."""

    def __init__(self, state_dir, cuts_dir):
        self.state_dir = state_dir
        self.cuts_dir = cuts_dir
        self.server = None
        self.expected = [None]          # expected[k]: after append k
        #: Per append: the segment it went to and that file's size
        #: before and after it.
        self.spans = [None]

    def __call__(self):
        k = len(self.expected)
        path = self.server.store.journal.segments()[-1][1]
        size = os.path.getsize(path)
        before = 0
        if self.spans[-1] is not None and self.spans[-1][0] == path:
            before = self.spans[-1][2]
        self.spans.append((path, before, size))
        self.expected.append(observe(self.server))
        shutil.copytree(self.state_dir, self.cut(k))

    def cut(self, k):
        return os.path.join(self.cuts_dir, f"after-{k:04d}")


def recovered_state(state_dir):
    server = durable_server(state_dir)
    server._recover()
    try:
        return observe(server)
    finally:
        server.simulate_crash()


def run_script(tmp_path, seed):
    state_dir = str(tmp_path / "state")
    recorder = Recorder(state_dir, str(tmp_path / "cuts"))
    server = durable_server(state_dir, hook=recorder)
    recorder.server = server
    server.start()
    gap = {}
    truncate = server.store.journal.truncate_sealed

    def truncate_after_copy():
        # The crash point between the checkpoint's rename and the
        # deletion of the segments it covers.
        shutil.copytree(state_dir, str(tmp_path / "gap"))
        gap["expected"] = observe(server)
        return truncate()

    server.store.journal.truncate_sealed = truncate_after_copy
    retry = RetryPolicy(retries=2, base=0.1, factor=1.5, max_backoff=0.3,
                        jitter=0.0)
    clients = [DuelClient(port=server.port, timeout=20.0, retry=retry)
               for _ in range(3)]
    try:
        for step in script(seed):
            if step == "checkpoint":
                assert server.checkpoint()
                continue
            who, text, token = step if len(step) == 3 else (*step, None)
            if text == "close":
                appended = len(recorder.expected)
                clients[who].close()
                # The bye is handled on the server's connection
                # thread; wait for its tombstone before going on.
                deadline = time.monotonic() + 10.0
                while len(recorder.expected) == appended \
                        and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert len(recorder.expected) > appended, \
                    "sess_close never journaled"
                continue
            result = clients[who].duel(text, idem=token)
            assert result.outcome in ("done", "faulted"), result
    finally:
        server.simulate_crash()
        for client in clients:
            client._teardown()
    return recorder, gap


@pytest.mark.parametrize("seed", [1, 2])
def test_every_crash_point_recovers_the_recorded_state(tmp_path, seed):
    recorder, gap = run_script(tmp_path, seed)
    appends = len(recorder.expected) - 1
    assert appends >= 20
    keys = set()
    for k in range(1, appends + 1):
        assert recovered_state(recorder.cut(k)) == recorder.expected[k], \
            f"seed {seed}: crash after append {k}"
        if k < appends:
            # The same crash one append later, half-way through it.
            torn = str(tmp_path / "torn")
            shutil.rmtree(torn, ignore_errors=True)
            shutil.copytree(recorder.cut(k + 1), torn)
            path, before, after = recorder.spans[k + 1]
            segment = os.path.join(torn, "journal",
                                   os.path.basename(path))
            with open(segment, "r+b") as handle:
                handle.truncate(before + (after - before) // 2)
            assert recovered_state(torn) == recorder.expected[k], \
                f"seed {seed}: crash tearing append {k + 1}"
        keys.update(recorder.expected[k]["sessions"])
    assert len(keys) == 3                     # every session was seen
    assert recovered_state(str(tmp_path / "gap")) == gap["expected"]
