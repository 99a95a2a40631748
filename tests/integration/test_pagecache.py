"""Integration: the page cache under real sessions and a real server.

Three acceptance surfaces for PR 10:

* **advisor calibration** — the measured hit rate of a live cache
  must land near what :func:`~repro.obs.access.simulate_page_cache`
  projects for the same recorded trace at the same (page size,
  capacity) point; the ``accesses`` report's comparison section is
  only trustworthy if the model and the machine agree;
* **coherence hammer** — concurrent cached readers over a shared
  target with a committed writer never see a stale value: every
  reader's final read shows the last committed write, and no reader
  ever observes the counter move backwards;
* **epoch across restarts** — a server recovered from a checkpoint
  (whose DUELSNAP1 payload carries the memory epoch) serves
  post-recovery truth, never pre-crash cached pages.
"""

import io
import threading

import pytest

from repro import DuelSession, SimulatorBackend
from repro.bench import workloads
from repro.serve.client import DuelClient, RetryPolicy
from repro.serve.server import DuelServer
from repro.target.pagecache import PageCachePolicy

ARRAY = 400


def make_session(**kwargs):
    return DuelSession(SimulatorBackend(workloads.big_array(ARRAY)),
                       **kwargs)


# -- advisor calibration -------------------------------------------------

@pytest.mark.parametrize("page_size,capacity", [(64, 8), (256, 16)])
def test_advisor_projection_matches_measured_hit_rate(page_size,
                                                      capacity):
    """Demand mode (no speculation — the advisor's replay models
    exactly that) on a read-dominated scan: measured and projected
    hit rates agree within tolerance."""
    session = make_session(page_cache=PageCachePolicy(
        page_size=page_size, capacity=capacity))
    result = session.accesses(f"x[..{ARRAY}] >? 0")
    assert result["outcome"] == "done"
    report = result["cache"]
    assert report["mode"] == "demand"
    assert report["projected_hit_rate"] is not None
    assert abs(report["projection_gap"]) <= 0.15, report
    # The cache did real work on this scan, not a degenerate 0/0.
    assert report["hits"] > 0
    assert 0 < report["physical_reads"] < report["logical_reads"]


def test_cache_report_reaches_the_accesses_surface():
    session = make_session(page_cache="demand")
    result = session.accesses("x[..64] !=? 0")
    report = result["cache"]
    assert report["mode"] == "demand"
    assert report["measured_hit_rate"] > 0.5
    # And the rendered report carries the measured-vs-projected line.
    from repro.obs.access import render_report
    text = "\n".join(render_report("x[..64] !=? 0", result["access"],
                                   result.get("advisor") or [],
                                   cache=report))
    assert "page cache (demand" in text
    assert "advisor projection" in text


def test_per_query_stats_split_logical_and_physical():
    session = make_session(page_cache="demand")
    session.duel(f"x[..{ARRAY}] !=? 0", out=io.StringIO())
    stats = session.last_query.stats
    assert stats["reads"] > stats["physical_reads"] > 0
    assert stats["cache_hits"] + stats["cache_misses"] == stats["reads"]
    # Statements aggregate both totals per fingerprint.
    from repro.obs.statements import StatementStats
    session = make_session(page_cache="demand")
    session.statements = StatementStats()
    session.duel(f"x[..{ARRAY}] !=? 0", out=io.StringIO())
    row = session.statements.snapshot(by="physical_reads")[0]
    assert row["reads"] > row["physical_reads"] > 0
    assert row["cached_calls"] == 1
    assert row["cache_hit_rate"] > 0.5


# -- coherence hammer ----------------------------------------------------

class TestCoherenceHammer:
    READERS = 4
    WRITES = 25

    @pytest.fixture()
    def server(self):
        server = DuelServer(
            workloads.big_array(ARRAY), workers=4, max_clients=12,
            commit_writes=True,
            session_kwargs={"page_cache": PageCachePolicy(
                page_size=64, capacity=16)})
        server.start()
        try:
            yield server
        finally:
            server.stop()

    def connect(self, server):
        client = DuelClient(port=server.port, timeout=10.0,
                            retry=RetryPolicy(retries=2, base=0.05,
                                              jitter=0.0))
        client.connect()
        return client

    def read_cell(self, client):
        result = client.duel("x[7]")
        assert result.ok, result
        return int(result.lines[-1].split("=")[-1])

    def test_readers_never_see_stale_or_backward_values(self, server):
        """Cached readers vs. a committed writer: monotone observed
        values per reader, and the final read equals the last write."""
        initial = None
        stop = threading.Event()
        failures = []
        observed = [[] for _ in range(self.READERS)]

        def reader(index):
            client = self.connect(server)
            try:
                last = None
                while not stop.is_set():
                    value = self.read_cell(client)
                    if last is not None and value < last:
                        failures.append(
                            f"reader {index} saw {value} after {last}")
                        return
                    last = value
                    observed[index].append(value)
            finally:
                client.close()

        writer = self.connect(server)
        initial = self.read_cell(writer)
        threads = [threading.Thread(target=reader, args=(i,))
                   for i in range(self.READERS)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(self.WRITES):
                result = writer.duel("x[7] = x[7] + 1")
                assert result.ok, result
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        assert not failures, failures
        assert not any(thread.is_alive() for thread in threads)
        # Every fresh reader connection sees the final committed value
        # through its own (cold) cache; the writer's cached view
        # agrees because its own writes resynced, not flushed.
        want = initial + self.WRITES
        assert self.read_cell(writer) == want
        checker = self.connect(server)
        assert self.read_cell(checker) == want
        checker.close()
        writer.close()

    def test_restore_invalidates_reader_caches(self, server):
        """A rolled-back side-effecting query (the default for
        non-committed sessions is commit, so use an explicit failed
        drain path): snapshot restore bumps the epoch, so a warmed
        cache re-reads instead of serving the pre-restore page."""
        client = self.connect(server)
        before = self.read_cell(client)
        # A query that writes then faults: the lease settles by
        # restoring the pre-query snapshot — epoch bump — so the
        # next read must not serve the written value from cache.
        result = client.duel("(x[7] = x[7] + 100, x[999999])")
        assert result.outcome in ("faulted", "done")
        if result.outcome == "faulted":
            assert self.read_cell(client) == before
        client.close()


# -- epoch across restarts ----------------------------------------------

def test_recovered_server_serves_post_crash_truth(tmp_path):
    policy = PageCachePolicy(page_size=64, capacity=16)
    kwargs = dict(workers=2, commit_writes=True,
                  journal_fsync="off", checkpoint_interval=0.0,
                  session_kwargs={"page_cache": policy})
    server = DuelServer(workloads.big_array(ARRAY),
                        state_dir=str(tmp_path / "state"), **kwargs)
    server.start()
    restarted = None
    try:
        client = DuelClient(port=server.port, timeout=10.0)
        client.connect()
        assert client.duel("x[..32]").ok          # warm session caches
        assert client.duel("x[3] = 777").ok
        server.checkpoint()
        epoch_at_ckpt = server.sessions.program.memory.epoch
        assert epoch_at_ckpt > 0
        client._teardown()
        server.simulate_crash()

        restarted = DuelServer(workloads.big_array(ARRAY),
                               state_dir=str(tmp_path / "state"),
                               **kwargs)
        restarted.start()
        # Restore advanced the fresh program's epoch past the
        # checkpoint's, so no pre-crash page can ever be current.
        assert restarted.sessions.program.memory.epoch > epoch_at_ckpt
        again = DuelClient(port=restarted.port, timeout=10.0)
        again.connect()
        result = again.duel("x[3]")
        assert result.ok
        assert result.lines[-1] == "x[3] = 777"
        again.close()
    finally:
        server.stop()
        if restarted is not None:
            restarted.stop()
