"""Page-granular target read cache (demand paging).

The classic remote-debugger amortization (Hanson's revisited machine-
independent debugger): the evaluator asks the target for 4 and 8 byte
values one at a time, but the narrow interface underneath may be a
slow channel — so batch.  :class:`PageCachingBackend` sits in the
evaluator's wrapper chain between the access observatory
(:class:`~repro.target.interface.AccessTracingBackend`, which must
keep seeing *logical* reads — the engine-parity oracle and the scan
classifier both depend on that stream being cache-independent) and
the quota layer (:class:`~repro.target.interface.GovernedBackend`):
every read the evaluator issues is served from fixed-size pages, and
each miss turns into **one bulk inner read** covering the whole run
of missing pages.  The inner reads are the *physical* traffic; the
``reads`` counter on the outer
:class:`~repro.target.interface.TracingBackend` stays logical.

Coherence is epoch-based.  :class:`~repro.target.memory.Memory` bumps
a monotone ``epoch`` on every mutation (writes, mappings, unmappings
— which covers query writes, mini-C execution, fault-injected unmaps
and snapshot restore, since restore rebuilds the region map and then
advances past the snapshot's recorded epoch).  A cache checks the
epoch on every read and drops everything when it moved; its *own*
write-through invalidates just the touched pages and resyncs, so a
single-writer session keeps its cache warm across its own writes.
Under the serve layer's shared-program RW lock writers are exclusive,
so the check-then-serve sequence can never interleave with a foreign
write — each session's private cache stays coherent without any
cross-session protocol beyond the counter.

Pages are fetched only when a read demands them: an LRU of pages,
which is exactly what the access observatory's advisor
(:func:`~repro.obs.access.simulate_page_cache`) projects.  Policy is
static per session: ``off`` (not even constructed — the evaluator
splices the hop out exactly like the access tracer, so the off-path
cost is zero) or ``demand``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.target.memory import TargetMemoryFault

#: Default page size in bytes (power of two; matches the advisor's
#: middle sweep point, where BENCH_9's projection put the knee).
DEFAULT_PAGE_SIZE = 256
#: Default capacity in pages (64 × 256 B = 16 KiB resident).
DEFAULT_CAPACITY = 64


@dataclass(frozen=True)
class PageCachePolicy:
    """Static page-cache configuration (``--page-cache demand``): a
    policy means demand caching; no policy means no cache."""

    page_size: int = DEFAULT_PAGE_SIZE
    capacity: int = DEFAULT_CAPACITY

    def __post_init__(self):
        if self.page_size < 8 or self.page_size & (self.page_size - 1):
            raise ValueError("page size must be a power of two >= 8")
        if self.capacity < 1:
            raise ValueError("page-cache capacity must be >= 1")


def parse_policy(mode: str, page_size: int = DEFAULT_PAGE_SIZE,
                 capacity: int = DEFAULT_CAPACITY) -> PageCachePolicy | None:
    """The policy a ``--page-cache`` mode names: None for ``off``, a
    :class:`PageCachePolicy` for ``demand`` (raises ``ValueError``
    for any other mode or a bad size)."""
    mode = str(mode).lower()
    if mode == "off":
        return None
    if mode != "demand":
        raise ValueError(
            f"page-cache mode must be off or demand, not {mode!r}")
    return PageCachePolicy(page_size=page_size, capacity=capacity)


class PageCachingBackend:
    """Serves ``get_target_bytes`` from an LRU of fixed-size pages.

    ``inner`` is the next backend down (the governed backend);
    ``epoch_source`` is a zero-argument callable returning the
    target's current memory epoch — normally ``program.memory`` is
    reachable through the chain and the evaluator binds
    ``lambda: memory.epoch``.  Everything that is not a read or a
    write delegates transparently.
    """

    def __init__(self, inner, policy: PageCachePolicy, epoch_source):
        if policy is None:
            raise ValueError("PageCachingBackend requires a policy "
                             "(off means: do not construct one)")
        self.inner = inner
        self.policy = policy
        self._epoch_source = epoch_source
        self._inner_get = inner.get_target_bytes
        self._inner_put = inner.put_target_bytes
        self._page_size = policy.page_size
        self._shift = policy.page_size.bit_length() - 1
        self._capacity = policy.capacity
        self._pages: OrderedDict[int, bytes] = OrderedDict()
        self._epoch = epoch_source()
        # -- counters ----------------------------------------------------
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.flushes = 0
        self.physical_reads = 0
        self.physical_bytes = 0
        self.uncacheable = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    # -- coherence -------------------------------------------------------
    def invalidate_all(self) -> None:
        """Drop every cached page (rollback/restore hook; also the
        lazy epoch-mismatch path)."""
        if self._pages:
            self._pages.clear()
            self.flushes += 1
        self._epoch = self._epoch_source()

    # -- reads -----------------------------------------------------------
    def get_target_bytes(self, address: int, size: int) -> bytes:
        epoch = self._epoch_source()
        if epoch != self._epoch:
            # Someone mutated memory since the cache was filled — a
            # foreign session's committed write, a snapshot restore,
            # target-call side effects.  Drop everything.
            if self._pages:
                self._pages.clear()
                self.flushes += 1
            self._epoch = epoch
        shift = self._shift
        first = address >> shift
        last = (address + size - 1) >> shift
        pages = self._pages
        if first == last:
            data = pages.get(first)
            if data is not None:
                self.hits += 1
                pages.move_to_end(first)
                offset = address - (first << shift)
                return data[offset:offset + size]
            return self._fill(first, last, address, size)
        missing = [p for p in range(first, last + 1) if p not in pages]
        if not missing:
            self.hits += 1
            parts = []
            for page in range(first, last + 1):
                data = pages[page]
                pages.move_to_end(page)
                base = page << shift
                lo = max(address, base) - base
                hi = min(address + size, base + self._page_size) - base
                parts.append(data[lo:hi])
            return b"".join(parts)
        return self._fill(first, last, address, size)

    # -- writes ----------------------------------------------------------
    def put_target_bytes(self, address: int, data: bytes) -> None:
        before = self._epoch_source()
        self._inner_put(address, data)
        after = self._epoch_source()
        shift = self._shift
        last = (address + max(len(data), 1) - 1) >> shift
        for page in range(address >> shift, last + 1):
            self._pages.pop(page, None)
        if self._epoch == before:
            # No foreign mutation intervened: our own write-through
            # invalidation covers the delta, so resync instead of
            # flushing the whole cache on the next read.
            self._epoch = after

    # -- miss path -------------------------------------------------------
    def _fill(self, first: int, last: int, address: int,
              size: int) -> bytes:
        """One miss: bulk-read every missing page in ``[first, last]``,
        then serve the range."""
        self.misses += 1
        pages = self._pages
        shift = self._shift
        page_size = self._page_size
        wanted = [p for p in range(first, last + 1) if p not in pages]
        for run_start, run_len in _runs(wanted):
            base = run_start << shift
            length = run_len << shift
            try:
                blob = self._inner_get(base, length)
            except TargetMemoryFault:
                # The page run pads past a region boundary (or the
                # demanded range itself is unmapped).  Retry page by
                # page, then fall back to the exact range.
                blob = None
            if blob is not None:
                self.physical_reads += 1
                self.physical_bytes += length
                for index in range(run_len):
                    page = run_start + index
                    pages[page] = blob[index << shift:
                                       (index + 1) << shift]
                    pages.move_to_end(page)
                continue
            for page in range(run_start, run_start + run_len):
                base = page << shift
                try:
                    blob = self._inner_get(base, page_size)
                except TargetMemoryFault:
                    continue
                self.physical_reads += 1
                self.physical_bytes += page_size
                pages[page] = blob
                pages.move_to_end(page)
        while len(pages) > self._capacity:
            pages.popitem(last=False)
            self.evictions += 1
        if any(p not in pages for p in range(first, last + 1)):
            # Some demanded page would not fill whole (region edge or
            # genuinely unmapped address): serve the exact range
            # uncached so fault semantics match the uncached chain
            # byte for byte.
            self.uncacheable += 1
            data = self._inner_get(address, size)
            self.physical_reads += 1
            self.physical_bytes += size
            return data
        parts = []
        for page in range(first, last + 1):
            data = pages[page]
            base = page << shift
            lo = max(address, base) - base
            hi = min(address + size, base + page_size) - base
            parts.append(data[lo:hi])
        return parts[0] if len(parts) == 1 else b"".join(parts)

    # -- observability ---------------------------------------------------
    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def counters(self) -> dict:
        """Raw monotone counters (per-query deltas come from here)."""
        return {
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "cache_evictions": self.evictions,
            "cache_flushes": self.flushes,
            "physical_reads": self.physical_reads,
            "physical_bytes": self.physical_bytes,
        }

    def stats(self) -> dict:
        """Counters plus configuration and derived rates (the REPL
        ``cache`` command / health section shape)."""
        return {
            **self.counters(),
            "hit_rate": round(self.hit_rate, 4),
            "resident_pages": len(self._pages),
            "page_size": self._page_size,
            "capacity": self._capacity,
            "mode": "demand",
            "epoch": self._epoch,
        }


def _runs(pages: list[int]):
    """Yield ``(start, length)`` for each maximal consecutive run."""
    start = prev = None
    for page in pages:
        if start is None:
            start = prev = page
            continue
        if page == prev + 1:
            prev = page
            continue
        yield start, prev - start + 1
        start = prev = page
    if start is not None:
        yield start, prev - start + 1
