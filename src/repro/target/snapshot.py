"""Checkpoint and rollback for the simulated inferior.

``take`` captures everything a failed or side-effecting query could
disturb — region contents (and the region map itself, so an injected
unmap is undone), heap bookkeeping, globals, functions, frames, type
tables, interned strings, and output — and ``restore`` puts it back in
place, leaving the same :class:`~repro.target.program.TargetProgram`
object usable by every session already attached to it.

``delta`` and ``apply`` do the same for one write's effect alone (the
byte runs and fields it changed since a snapshot), so a durable server
journals a committed write as that and recovery runs no query.
"""

from __future__ import annotations

import pickle
import zlib
from dataclasses import dataclass

from repro.target.program import TargetFunction, TargetProgram

#: Serialized-snapshot magic prefix (bump on incompatible changes).
SNAP_MAGIC = b"DUELSNAP1"

#: What a :class:`Snapshot` holds besides region contents and function
#: bodies; a :func:`delta` carries only the ones that changed.
STATE_FIELDS = ("heap", "stack", "globals", "function_symbols", "types",
                "interned", "output", "data_next", "text_next")


@dataclass
class Snapshot:
    """An opaque captured program state (pass back to :func:`restore`)."""

    regions: list
    #: Each of :data:`STATE_FIELDS`, by name.
    state: dict
    functions: dict
    #: Memory epoch at capture time.  ``restore`` never rewinds the
    #: live counter to this value — it advances *past* it, so state
    #: keyed on an epoch seen before the restore (or, after a crash,
    #: before the checkpoint was taken) never matches again.
    epoch: int = 0

    def serialize(self) -> bytes:
        """A durable byte encoding of this snapshot.

        Everything pickles except ``functions``: the mini-C function
        implementations are closures over their interpreter, so only
        the *names* travel — :meth:`deserialize` rebinds each name to
        the implementation a freshly rebuilt program provides.  That
        is sound because the serving layer always reconstructs the
        target from the same program source before restoring.  Region
        contents are mostly zeros, so the pickle is zlib-compressed
        (level 1: the win is ~100x, the speed cost negligible).
        """
        payload = {"regions": self.regions, "epoch": self.epoch,
                   "function_names": sorted(self.functions), **self.state}
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        return SNAP_MAGIC + zlib.compress(body, 1)

    @classmethod
    def deserialize(cls, data: bytes, program: TargetProgram) -> "Snapshot":
        """Rebuild a snapshot from :meth:`serialize` output.

        ``program`` must be a freshly built instance of the same
        target program — it supplies the function implementations the
        encoding deliberately left out.  Raises :class:`ValueError`
        on bad magic, corrupt payload, or a function name the program
        no longer defines.
        """
        if not data.startswith(SNAP_MAGIC):
            raise ValueError("not a serialized DUEL snapshot")
        try:
            payload = pickle.loads(zlib.decompress(data[len(SNAP_MAGIC):]))
        except (zlib.error, pickle.UnpicklingError, EOFError,
                AttributeError, ValueError) as error:
            raise ValueError(
                f"corrupt serialized snapshot: {error}") from error
        functions = {}
        for name in payload["function_names"]:
            entry = program.functions.get(name)
            if entry is None:
                raise ValueError(
                    f"snapshot references function {name!r} the rebuilt "
                    "program does not define")
            functions[name] = entry.impl
        return cls(regions=payload["regions"],
                   state={name: payload[name] for name in STATE_FIELDS},
                   functions=functions, epoch=payload.get("epoch", 0))


#: Granule of a delta's byte runs.
_GRAIN = 16


def _state(program: TargetProgram) -> dict:
    """A copy of each of :data:`STATE_FIELDS`."""
    types = program.types
    return {
        "heap": program.heap.copy_state(),
        "stack": program.stack.copy_state(),
        "globals": program.globals.copy_state(),
        "function_symbols": {name: entry.symbol
                             for name, entry in program.functions.items()},
        "types": (dict(types.structs), dict(types.unions),
                  dict(types.enums), dict(types.typedefs),
                  dict(types.enum_constants)),
        "interned": dict(program._interned),
        "output": list(program.output),
        "data_next": program._data_next,
        "text_next": program._text_next,
    }


def take(program: TargetProgram) -> Snapshot:
    """Capture ``program``'s full state.

    Each region is copied only up to its write high-water mark: the
    bytes past it were never written, so they are zero, and
    :func:`restore` need zero only what was written past it since.
    """
    return Snapshot(
        regions=[(r.name, r.base, r.size, r.data[:r.written])
                 for r in program.memory.regions],
        state=_state(program),
        functions={name: entry.impl
                   for name, entry in program.functions.items()},
        epoch=program.memory.epoch,
    )


def restore(program: TargetProgram, snapshot: Snapshot) -> None:
    """Rewind ``program`` to a previously taken :class:`Snapshot`."""
    # The copied prefix goes back and becomes the mark, and only the
    # bytes written past it are zeroed, so a restore costs what was
    # written, not the size of the address space (a full-length copy,
    # as older snapshots hold, restores as well).
    _put(program, [(name, base, size, len(prefix), ((0, prefix),))
                   for name, base, size, prefix in snapshot.regions],
         snapshot.state, snapshot.functions)
    # The epoch is monotone even across rewinds: a restore *changes*
    # memory relative to what readers saw before it (and the in-place
    # rewrite above bumps nothing itself), so it must move the counter
    # forward — past both the live value and whatever the
    # snapshot recorded (the latter matters after crash recovery,
    # where the rebuilt program's counter starts near zero but the
    # pre-crash server had reached the checkpoint's epoch).
    memory = program.memory
    memory.epoch = max(memory.epoch, snapshot.epoch) + 1


def delta(program: TargetProgram, base: Snapshot) -> dict:
    """What ``program`` changed since ``base`` was taken: the region map
    with each write mark and the runs of each written prefix that differ
    from ``base``'s (zeros for a new region), and each of
    :data:`STATE_FIELDS` that changed — after a plain store, none."""
    before = {region[:3]: region[3] for region in base.regions}
    regions = [(r.name, r.base, r.size, r.written,
                _runs(r.data[:r.written],
                      before.get((r.name, r.base, r.size), b"")))
               for r in program.memory.regions]
    state = {name: value for name, value in _state(program).items()
             if value != base.state[name]}
    return {"regions": regions, "state": state}


def apply(program: TargetProgram, delta: dict) -> None:
    """Carry ``program`` from the state a :func:`delta` was taken
    against to the one it describes (recovery applies committed deltas
    in order over the checkpoint they follow)."""
    _put(program, delta["regions"], delta["state"],
         {name: entry.impl for name, entry in program.functions.items()})
    program.memory.epoch += 1


def _runs(live: bytes, old: bytes) -> list:
    """``(offset, bytes)`` runs where ``live`` differs from ``old``
    zero-extended, found by halving (an equal half costs one compare),
    adjacent granules merged."""
    old = old[:len(live)].ljust(len(live), b"\0")
    if live == old:
        return []
    spans: list = []
    pending = [(0, len(live))]
    while pending:
        lo, hi = pending.pop()
        if live[lo:hi] == old[lo:hi]:
            continue
        if hi - lo > _GRAIN:
            mid = (lo + hi) // 2
            pending += ((mid, hi), (lo, mid))      # low half first
        elif spans and spans[-1][1] == lo:
            spans[-1][1] = hi
        else:
            spans.append([lo, hi])
    return [(lo, live[lo:hi]) for lo, hi in spans]


def _put(program: TargetProgram, regions: list, state: dict,
         impls: dict) -> None:
    """Make the region map ``regions``' (a region unmapped since comes
    back zeroed), store each region's runs, make its mark the write mark
    (zeroing what was written past it), and set what ``state`` holds,
    with function bodies from ``impls`` by name."""
    memory = program.memory
    wanted = {entry[:3] for entry in regions}
    for region in memory.regions:
        if (region.name, region.base, region.size) not in wanted:
            memory.unmap(region.name)
    for name, base, size, mark, runs in regions:
        region = memory.region(name) or memory.map_new(name, base, size)
        data = region.data
        for offset, chunk in runs:
            data[offset:offset + len(chunk)] = chunk
        if region.written > mark:
            data[mark:region.written] = bytes(region.written - mark)
        region.written = mark
    for part in ("heap", "stack", "globals"):
        if part in state:
            getattr(program, part).restore_state(state[part])
    if "function_symbols" in state:
        program.functions = {}
        program._functions_by_address = {}
        for name, symbol in state["function_symbols"].items():
            entry = TargetFunction(symbol, impls.get(name))
            program.functions[name] = entry
            program._functions_by_address[symbol.address] = entry
    if "types" in state:
        structs, unions, enums, typedefs, constants = state["types"]
        types = program.types
        for table, saved in ((types.structs, structs), (types.unions, unions),
                             (types.enums, enums),
                             (types.enum_constants, constants)):
            table.clear()
            table.update(saved)
        types.restore_typedefs(typedefs)
    if "interned" in state:
        program._interned = dict(state["interned"])
    if "output" in state:
        program.output[:] = state["output"]
    for mark in ("data_next", "text_next"):
        if mark in state:
            setattr(program, "_" + mark, state[mark])
