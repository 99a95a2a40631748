"""Guarded, region-mapped target memory.

The simulated inferior's address space is a set of named, disjoint
regions (text, data, heap, stack).  Every access is bounds- and
mapping-checked *before* any byte moves, so a failed read or write can
never corrupt mapped contents; failures surface as structured
:class:`TargetMemoryFault` values that the evaluation layer converts to
the paper's ``Illegal memory reference`` report.

Raw byte access (``read``/``write``) is deliberately alignment-free —
C debuggers read ``char`` data at any address; typed access with
alignment checking lives in
:meth:`repro.target.program.TargetProgram.read_value`.
"""

from __future__ import annotations

import mmap
from typing import Optional


class TargetMemoryFault(Exception):
    """A rejected target-memory operation, with structured context.

    Carries the faulting ``address``, the ``size`` of the attempted
    access, the ``operation`` ("read", "write", "alloc", "free",
    "call"), and a human ``reason``.  Never raised after partial
    side effects: the operation is validated first, applied after.
    """

    def __init__(self, address: int, size: int, operation: str,
                 reason: str):
        self.address = address
        self.size = size
        self.operation = operation
        self.reason = reason
        super().__init__(
            f"{operation} of {size} byte(s) at {address:#x}: {reason}")


class Region:
    """One contiguous mapped range of the target address space.

    ``data`` is a private anonymous map, so the region is demand-zero:
    a page costs memory only once written, and mapping a 32 MB heap
    costs what mapping 4 KB does.  ``MAP_PRIVATE`` keeps a forked
    child's writes (and the parent's) from showing through.  Nothing
    closes the map: an anonymous map holds no file descriptor and is
    unmapped when its last reference goes, so a reader still holding
    an unmapped region reads valid (stale) bytes, never a closed map.

    ``written`` is the high-water mark of writes: every byte at or
    past ``data[written]`` has never been written and is still zero,
    so a snapshot need copy only ``data[:written]``, and a rollback
    need rewrite only that much.
    """

    __slots__ = ("name", "base", "size", "end", "data", "written")

    def __init__(self, name: str, base: int, size: int):
        self.name = name
        self.base = base
        self.size = size
        self.end = base + size
        self.data = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
        self.written = 0

    def contains(self, address: int, size: int = 1) -> bool:
        return self.base <= address and address + size <= self.end

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Region({self.name!r}, {self.base:#x}..{self.end:#x})"


class Memory:
    """A region-mapped address space with guarded byte access.

    ``epoch`` is a monotone counter bumped by every mutation of the
    address space — writes, fresh mappings, unmappings — and by
    snapshot restore (which rewrites region contents in place and then
    advances past the snapshot's own epoch).  Read caches stacked in
    front of the target key their contents on it: a cached page is
    valid only while the epoch it was filled under is still current,
    so any mutation anywhere — a query write, an injected unmap,
    execution control inside the mini-C interpreter, a rollback —
    invalidates stale bytes without the mutator knowing which caches
    exist.
    """

    def __init__(self) -> None:
        self._regions: list[Region] = []
        #: Monotone memory-generation counter (never reset, never
        #: rewound — snapshot restore advances it).
        self.epoch: int = 0

    # -- mapping -----------------------------------------------------------
    def map_new(self, name: str, base: int, size: int) -> Region:
        """Map a fresh zeroed region; rejects overlap and address 0."""
        if size <= 0:
            raise TargetMemoryFault(base, size, "map",
                                    "region size must be positive")
        if base <= 0:
            raise TargetMemoryFault(base, size, "map",
                                    "region must not cover address 0")
        for region in self._regions:
            if base < region.end and region.base < base + size:
                raise TargetMemoryFault(
                    base, size, "map",
                    f"overlaps mapped region {region.name!r}")
            if region.name == name:
                raise TargetMemoryFault(
                    base, size, "map", f"region {name!r} already mapped")
        region = Region(name, base, size)
        self._regions.append(region)
        self._regions.sort(key=lambda r: r.base)
        self.epoch += 1
        return region

    def unmap(self, name: str) -> Region:
        """Remove a region by name (fault injection uses this)."""
        for region in self._regions:
            if region.name == name:
                self._regions.remove(region)
                self.epoch += 1
                return region
        raise TargetMemoryFault(0, 0, "unmap", f"no region named {name!r}")

    def region(self, name: str) -> Optional[Region]:
        for region in self._regions:
            if region.name == name:
                return region
        return None

    @property
    def regions(self) -> tuple[Region, ...]:
        return tuple(self._regions)

    def region_at(self, address: int) -> Optional[Region]:
        for region in self._regions:
            if region.base <= address < region.end:
                return region
        return None

    # -- guarded access ----------------------------------------------------
    def is_mapped(self, address: int, size: int = 1) -> bool:
        """True when the whole ``[address, address+size)`` range is mapped."""
        if size <= 0 or address < 0:
            return False
        region = self.region_at(address)
        return region is not None and region.contains(address, size)

    def _locate(self, address: int, size: int, operation: str) -> Region:
        if not isinstance(address, int):
            raise TargetMemoryFault(0, size, operation,
                                    f"non-integer address {address!r}")
        if size <= 0:
            raise TargetMemoryFault(address, size, operation,
                                    "access size must be positive")
        region = self.region_at(address)
        if region is None:
            raise TargetMemoryFault(address, size, operation,
                                    "address is not mapped")
        if not region.contains(address, size):
            raise TargetMemoryFault(
                address, size, operation,
                f"access runs past the end of region {region.name!r}")
        return region

    def read(self, address: int, size: int) -> bytes:
        """Read ``size`` bytes; raises :class:`TargetMemoryFault` when any
        byte of the range is unmapped.  Never mutates state."""
        region = self._locate(address, size, "read")
        offset = address - region.base
        return region.data[offset:offset + size]

    def write(self, address: int, data: bytes) -> None:
        """Write ``data``; validated fully before any byte is stored."""
        if not data:
            return
        region = self._locate(address, len(data), "write")
        offset = address - region.base
        end = offset + len(data)
        region.data[offset:end] = data
        if end > region.written:
            region.written = end
        self.epoch += 1
