"""Checkpoint and rollback for the simulated inferior.

``take`` captures everything a failed or side-effecting query could
disturb — region contents (and the region map itself, so an injected
unmap is undone), heap bookkeeping, globals, functions, frames, type
tables, interned strings, and output — and ``restore`` puts it back in
place, leaving the same :class:`~repro.target.program.TargetProgram`
object usable by every session already attached to it.
"""

from __future__ import annotations

import pickle
import zlib
from dataclasses import dataclass

from repro.target.program import TargetProgram

#: Serialized-snapshot magic prefix (bump on incompatible changes).
SNAP_MAGIC = b"DUELSNAP1"


@dataclass
class Snapshot:
    """An opaque captured program state (pass back to :func:`restore`)."""

    regions: list
    heap: tuple
    stack: tuple
    globals: dict
    functions: dict
    function_symbols: dict
    types: tuple
    interned: dict
    output: list
    data_next: int
    text_next: int
    #: Memory epoch at capture time.  ``restore`` never rewinds the
    #: live counter to this value — it advances *past* it, so page
    #: caches filled before the restore (or, after a crash, before
    #: the checkpoint was taken) can never serve stale bytes.
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
        payload = {
            "regions": self.regions,
            "heap": self.heap,
            "stack": self.stack,
            "globals": self.globals,
            "function_names": sorted(self.functions),
            "function_symbols": self.function_symbols,
            "types": self.types,
            "interned": self.interned,
            "output": self.output,
            "data_next": self.data_next,
            "text_next": self.text_next,
            "epoch": self.epoch,
        }
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
        return cls(
            regions=payload["regions"],
            heap=payload["heap"],
            stack=payload["stack"],
            globals=payload["globals"],
            functions=functions,
            function_symbols=payload["function_symbols"],
            types=payload["types"],
            interned=payload["interned"],
            output=payload["output"],
            data_next=payload["data_next"],
            text_next=payload["text_next"],
            epoch=payload.get("epoch", 0),
        )


def take(program: TargetProgram) -> Snapshot:
    """Capture ``program``'s full state.

    Each region is copied only up to its write high-water mark: the
    bytes past it were never written, so they are zero, and
    :func:`restore` need zero only what was written past it since.
    """
    types = program.types
    return Snapshot(
        regions=[(r.name, r.base, r.size, r.data[:r.written])
                 for r in program.memory.regions],
        heap=program.heap.copy_state(),
        stack=program.stack.copy_state(),
        globals=program.globals.copy_state(),
        functions={name: entry.impl
                   for name, entry in program.functions.items()},
        function_symbols={name: entry.symbol
                          for name, entry in program.functions.items()},
        types=(dict(types.structs), dict(types.unions), dict(types.enums),
               dict(types.typedefs), dict(types.enum_constants)),
        interned=dict(program._interned),
        output=list(program.output),
        data_next=program._data_next,
        text_next=program._text_next,
        epoch=program.memory.epoch,
    )


def restore(program: TargetProgram, snapshot: Snapshot) -> None:
    """Rewind ``program`` to a previously taken :class:`Snapshot`."""
    memory = program.memory
    # Reconcile the region map (a region unmapped since the take comes
    # back, one mapped since goes away), then rewrite contents in
    # place: the copied prefix goes back and becomes the mark, and
    # only the bytes written past it are zeroed, so a restore costs
    # what was written, not the size of the address space (a
    # full-length copy, as older snapshots hold, restores as well).
    wanted = {(name, base, size) for name, base, size, _ in snapshot.regions}
    for region in memory.regions:
        if (region.name, region.base, region.size) not in wanted:
            memory.unmap(region.name)
    for name, base, size, prefix in snapshot.regions:
        region = memory.region(name) or memory.map_new(name, base, size)
        end = len(prefix)
        region.data[:end] = prefix
        if region.written > end:
            region.data[end:region.written] = bytes(region.written - end)
        region.written = end
    program.heap.restore_state(snapshot.heap)
    program.stack.restore_state(snapshot.stack)
    program.globals.restore_state(snapshot.globals)

    program.functions = {}
    program._functions_by_address = {}
    for name, symbol in snapshot.function_symbols.items():
        from repro.target.program import TargetFunction
        entry = TargetFunction(symbol, snapshot.functions[name])
        program.functions[name] = entry
        program._functions_by_address[symbol.address] = entry

    structs, unions, enums, typedefs, enum_constants = snapshot.types
    types = program.types
    types.structs.clear(); types.structs.update(structs)
    types.unions.clear(); types.unions.update(unions)
    types.enums.clear(); types.enums.update(enums)
    types.typedefs.clear(); types.typedefs.update(typedefs)
    types.enum_constants.clear(); types.enum_constants.update(enum_constants)

    program._interned = dict(snapshot.interned)
    program.output[:] = snapshot.output
    program._data_next = snapshot.data_next
    program._text_next = snapshot.text_next
    # The epoch is monotone even across rewinds: a restore *changes*
    # memory relative to what readers may have cached (and the in-place
    # rewrite above bumps nothing itself), so it must move the counter
    # forward — past both the live value and whatever the
    # snapshot recorded (the latter matters after crash recovery,
    # where the rebuilt program's counter starts near zero but clients
    # of the pre-crash server were at the checkpoint's epoch).
    memory.epoch = max(memory.epoch, snapshot.epoch) + 1
