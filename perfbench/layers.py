"""Per-layer spans recorded from outside the program.

A :class:`Recorder` replaces entry points of each layer with timing
wrappers for the duration of a traced run and puts them back after.
Each wrapper opens a ``perf_counter_ns`` span under the span that was
open when it was called; a call into the layer already on top of the
stack joins that span (``compare_true`` calling ``load_value`` stays
one ``ops`` span).  On close a span adds its duration to its layer's
total and its duration minus its children to the layer's self time.
The first spans of a run are also kept whole, tagged with their query,
and written out at the end.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter_ns

from repro.core import symbolic
from repro.core.eval import Evaluator
from repro.core.format import ValueFormatter
from repro.core.ops import Apply
from repro.core.session import DuelSession
from repro.core.values import ValueOps
from repro.target import snapshot
from repro.target.interface import DebuggerInterface, TracingBackend

APPLY_METHODS = ("binary", "compare_true", "negate", "plus", "bitnot",
                 "lognot", "deref", "addressof", "sizeof", "index", "field",
                 "cast", "assign", "compound_assign", "incdec")
LOAD_METHODS = ("load", "load_value")


class MeasuredBackend(DebuggerInterface):
    """The benchmark's own wrapper around a ``SimulatorBackend``.

    Handed to the traced session as its backend, so the time spent in
    target memory (``memory`` spans) and symbol lookup (``lookup``
    spans) is told apart from the evaluator's backend chain above it.
    """

    def __init__(self, inner):
        self.inner = inner
        self.program = inner.program      # lets the session roll back
        self.read_bytes = 0

    def get_target_variable(self, name):
        return self.inner.get_target_variable(name)

    def get_target_typedef(self, name):
        return self.inner.get_target_typedef(name)

    def get_target_struct(self, tag):
        return self.inner.get_target_struct(tag)

    def get_target_union(self, tag):
        return self.inner.get_target_union(tag)

    def get_target_enum(self, tag):
        return self.inner.get_target_enum(tag)

    def enum_constant(self, name):
        return self.inner.enum_constant(name)

    def frames_count(self):
        return self.inner.frames_count()

    def get_frame_variable(self, index, name):
        return self.inner.get_frame_variable(index, name)

    def is_mapped(self, address, size=1):
        return self.inner.is_mapped(address, size)

    def get_target_bytes(self, address, size):
        self.read_bytes += size
        return self.inner.get_target_bytes(address, size)

    def put_target_bytes(self, address, data):
        self.inner.put_target_bytes(address, data)

    def alloc_target_space(self, size):
        return self.inner.alloc_target_space(size)

    def call_target_func(self, target, raw_args):
        return self.inner.call_target_func(target, raw_args)


class Recorder:
    """Layer spans of one traced run, kept in memory."""

    #: Spans kept whole for writing out; later ones only add to totals.
    keep = 20_000

    def __init__(self):
        self._undo: list = []
        self.clear()

    def clear(self) -> None:
        """Forget every span and count (the wrappers stay installed)."""
        self.stack: list = []          # open spans: [layer, t0, child_ns]
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.spans_closed: Counter = Counter()
        self.calls: Counter = Counter()
        self.spans: list = []          # (query, layer, t0, t1, parent)
        self.query = 0

    # -- spans ---------------------------------------------------------------
    def enter(self, layer: str) -> bool:
        stack = self.stack
        if stack and stack[-1][0] == layer:
            return False
        stack.append([layer, perf_counter_ns(), 0])
        return True

    def exit(self, pushed: bool) -> None:
        if not pushed:
            return
        t1 = perf_counter_ns()
        layer, t0, child = self.stack.pop()
        duration = t1 - t0
        self.total_ns[layer] += duration
        self.self_ns[layer] += duration - child
        self.spans_closed[layer] += 1
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        if len(self.spans) < self.keep:
            self.spans.append((self.query, layer, t0, t1,
                               parent[0] if parent is not None else None))

    def timed(self, it, layer: str):
        """Iterate ``it`` with every ``next`` inside a ``layer`` span."""
        try:
            while True:
                pushed = self.enter(layer)
                try:
                    value = next(it)
                except StopIteration:
                    return
                finally:
                    self.exit(pushed)
                yield value
        finally:
            it.close()

    # -- wrapping ------------------------------------------------------------
    def patch(self, owner, name: str, layer: str, count: str = "") -> None:
        """Replace ``owner.name`` (a class or module attribute) with a
        wrapper timing it as ``layer`` (and counting its calls under
        ``count``)."""
        original = owner.__dict__[name]
        recorder = self

        def wrapper(*args, **kwargs):
            if count:
                recorder.calls[count] += 1
            pushed = recorder.enter(layer)
            try:
                return original(*args, **kwargs)
            finally:
                recorder.exit(pushed)

        wrapper.__wrapped__ = original
        setattr(owner, name, wrapper)
        self._undo.append((owner, name, original))

    def install(self) -> None:
        """Wrap every layer's entry points."""
        self.patch(DuelSession, "compile", "parser")
        for name in APPLY_METHODS:
            self.patch(Apply, name, "ops", "apply_calls")
        for name in LOAD_METHODS:
            self.patch(ValueOps, name, "ops", "loads")
        for name in ("store", "truthy"):
            self.patch(ValueOps, name, "ops")
        self.patch(ValueFormatter, "format", "format")
        for cls in _sym_classes():
            self.patch(cls, "render", "symbolic")
        self.patch(TracingBackend, "get_target_bytes", "chain", "chain_reads")
        self.patch(MeasuredBackend, "get_target_bytes", "memory",
                   "memory_reads")
        self.patch(MeasuredBackend, "get_target_variable", "lookup")
        self.patch(snapshot, "take", "snapshot_take")
        self.patch(snapshot, "restore", "snapshot_restore")
        original_eval = Evaluator.__dict__["eval"]
        recorder = self

        def eval(evaluator, node):
            it = original_eval(evaluator, node)
            stack = recorder.stack
            if stack and stack[-1][0] == "eval":
                return it          # a subexpression of the open drive
            return recorder.timed(it, "eval")

        Evaluator.eval = eval
        self._undo.append((Evaluator, "eval", original_eval))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def write(self, path: str) -> None:
        """Write the kept spans (one JSON object per line)."""
        with open(path, "w") as out:
            for query, layer, t0, t1, parent in self.spans:
                out.write(json.dumps({"query": query, "layer": layer,
                                      "start_ns": t0, "end_ns": t1,
                                      "parent": parent}) + "\n")


def _sym_classes() -> list:
    found, todo = [], [symbolic.Sym]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "render" in cls.__dict__:
            found.append(cls)
    return found
