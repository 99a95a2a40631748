"""The paper's explicit evaluation scheme, reproduced literally.

Because C has no coroutines, the original DUEL implements each
generator as a state machine: every AST node carries a ``state``
(non-negative integer) and a saved ``value``; a distinguished
``NOVALUE`` signals the end of a sequence; each call to ``eval``
produces one value and "goto" labels resume evaluation mid-operator
(paper §Semantics, the numbered PLUS listing).

:class:`StateMachineEvaluator` is that scheme in Python, state kept in
a side table so ASTs stay immutable.  It owns only the control: which
operand to pull next, and when a node's sequence ends.  What a value
means — the C semantics of each operator, the integer checks on
bounds, symbolic output and its accounting, name-scope entries, the
expansion step of ``-->`` — is the generator engine's code
(:class:`~repro.core.eval.Evaluator`), called from here, so each rule
lives in one place.  It covers every operator the paper gives a
listing for — constants, names, unary/binary/assignment, ``to``,
``alternate``, the conditional-yield comparisons, indexing,
if/and-and/or-or, imply, sequence, while, select, define — plus the
structural pair WITH and DFS, whose name-scope entries persist across
yields exactly as the paper's push/pop bracketing implies.
Reductions, calls, and the other conveniences remain
generator-engine-only.

The two engines must be observationally identical, symbolic output
included: the A1 benchmark and the differential tests
(``tests/property/test_engines.py``,
``tests/unit/core/test_statemachine.py``) check exactly that.
"""

from __future__ import annotations

from functools import partial
from itertools import count
from typing import Optional

from repro.core import nodes as N
from repro.core.errors import DuelError
from repro.core.eval import Evaluator
from repro.core.values import DuelValue, int_value

#: The paper's distinguished end-of-sequence marker.
NOVALUE = None


class _NodeState:
    """The paper's per-node mutable fields: ``state`` and ``value``."""

    __slots__ = ("state", "value", "aux")

    def __init__(self) -> None:
        self.state = 0
        self.value: Optional[DuelValue] = None
        self.aux = None  # iteration state (TO, SELECT, DFS, branches)


class StateMachineEvaluator:
    """Drives DUEL ASTs with the explicit state/NOVALUE protocol.

    Reuses the backend plumbing and value semantics of a normal
    :class:`~repro.core.eval.Evaluator`; only the *control* is the
    paper's hand-compiled scheme instead of Python generators.
    """

    def __init__(self, evaluator: Evaluator):
        self.ev = evaluator
        self._states: dict[int, _NodeState] = {}
        ev = evaluator
        two = self._two_operands
        # Node type -> machine.  The combine steps look each Apply
        # method up when they run, never here: a profiler may wrap
        # those methods on the class after this machine is built.
        self._machines = {
            N.Constant: self._leaf, N.Name: self._leaf,
            N.Underscore: self._leaf,
            N.Unary: partial(self._pointwise, ev._unary),
            N.Define: partial(self._pointwise, ev._define),
            N.Binary: partial(two, lambda node, u, v:
                              ev.apply.binary(node.operator, u, v)),
            N.Assign: partial(two, ev._assign),
            N.CompareYield: partial(two, self._compare_yield),
            N.Index: partial(two, lambda node, u, v: ev.apply.index(u, v)),
            N.If: self._branching, N.AndAnd: self._branching,
            N.OrOr: self._branching, N.Imply: self._branching,
            N.To: self._to, N.Alternate: self._alternate,
            N.Sequence: self._sequence, N.While: self._while,
            N.Select: self._select, N.With: self._with, N.Expand: self._dfs,
        }

    # -- public ----------------------------------------------------------
    def supports(self, node: N.Node) -> bool:
        return all(type(n) in self._machines for n in N.walk(node))

    def drive(self, node: N.Node) -> list[DuelValue]:
        """Top-level command: call eval until NOVALUE (paper's driver)."""
        return list(self.iter_drive(node))

    def iter_drive(self, node: N.Node):
        """Lazy drive: one value per iteration, NOVALUE ends it.

        The generator-engine-shaped face of the state machine, so
        engine-agnostic harnesses (the query-log parity tests, partial
        consumers) can pull values one at a time and observe exactly
        how many were produced before a limit tripped.
        """
        for n in N.walk(node):
            if type(n) not in self._machines:
                raise DuelError(
                    f"state-machine engine does not implement {n.op!r}")
        self._states.clear()
        depth = self.ev.scope.with_depth
        try:
            yield from self._values(node)
        finally:
            # WITH/DFS entries persist between eval calls by design;
            # unwind any leftovers if evaluation stopped early.
            while self.ev.scope.with_depth > depth:
                self.ev.scope.pop()

    # -- the paper's eval ---------------------------------------------------
    def eval(self, node: N.Node):
        """One value of ``node``, or NOVALUE; resumes where it left off.

        Every produced value charges the shared governor exactly as the
        generator engine's ``_counted`` wrapper does (one step per value
        any node yields), so both engines trip the same budgets —
        steps, wall-clock deadline, cancellation — at the same counts.

        When a tracer is attached (one predicate check otherwise), each
        eval call is bracketed as one *pull* and each produced value as
        one *yield*, at the same points the generator engine's wrapper
        fires — the two engines emit identical event sequences, which
        the parity property tests use as a correctness oracle.
        """
        machine = self._machines[type(node)]
        tracer = self.ev.tracer
        if tracer is None:
            value = machine(node)
            if value is not NOVALUE:
                self.ev.governor.step()
            return value
        span, t0 = tracer.enter(node)
        try:
            value = machine(node)
            if value is not NOVALUE:
                self.ev.governor.step()
        except BaseException:
            tracer.exit_error(span, t0)
            raise
        (tracer.exit_end if value is NOVALUE else tracer.exit_yield)(span, t0)
        return value

    def _values(self, node: N.Node):
        """``node``'s values until NOVALUE, as an iterator."""
        return iter(lambda: self.eval(node), NOVALUE)

    def _st(self, node: N.Node) -> _NodeState:
        state = self._states.get(id(node))
        if state is None:
            state = self._states[id(node)] = _NodeState()
        return state

    def _reset(self, node: N.Node) -> None:
        """Abandon a subtree mid-stream: forget its states and pop the
        scope entries its WITH machines hold, as closing a generator
        runs its ``finally``."""
        for n in N.walk(node):
            st = self._states.pop(id(n), None)
            if isinstance(n, N.With) and st is not None and st.state == 1:
                self.ev.scope.pop()

    # case CONSTANT, NAME, _ (paper listing): one value, from the
    # generator engine's own case (uncounted: eval charges it).
    def _leaf(self, node: N.Node):
        st = self._st(node)
        if st.state == 0:
            st.state = 1
            return next(self.ev._dispatch[type(node)](node))
        st.state = 0
        return NOVALUE

    # case NEGATE, DEFINE, ...: while (u = eval(kids[0])) yield f(u).
    def _pointwise(self, f, node: N.Node):
        u = self.eval(node.kids[0])
        return NOVALUE if u is NOVALUE else f(node, u)

    # case PLUS, MINUS, MULTIPLY, ... — the numbered listing in the
    # paper; assignment, the ?-comparisons and indexing run the same
    # machine with their own combine step (NOVALUE: yield nothing).
    def _two_operands(self, combine, node: N.Node):
        left, right = node.kids
        st = self._st(node)
        while True:
            if st.state == 0:                       # 3: bin0
                st.value = self.eval(left)          # 4
                if st.value is NOVALUE:             # 5-6
                    return NOVALUE
                st.state = 1                        # 7
            v = self.eval(right)                    # 2: goto bin1; 8: bin1
            if v is NOVALUE:                        # 9: goto bin0
                st.state = 0
                continue
            result = combine(node, st.value, v)     # 10: apply
            if result is not NOVALUE:
                return result                       # 11: return

    # case IFGT, IFGE, ...: the left operand when the test holds.
    def _compare_yield(self, node: N.CompareYield, u: DuelValue,
                       v: DuelValue):
        if self.ev.apply.compare_true(node.operator, u, v):
            return u
        return NOVALUE

    # case IF, ANDAND, OROR, IMPLY: each condition value picks what
    # follows it (Evaluator._branch); state 1 drains a picked branch.
    def _branching(self, node: N.Node):
        st = self._st(node)
        while True:
            if st.state == 1:
                v = self.eval(st.aux)
                if v is not NOVALUE:
                    return v
                st.state = 0
            u = self.eval(node.kids[0])
            if u is NOVALUE:
                return NOVALUE
            picked = self.ev._branch(node, u)
            if isinstance(picked, DuelValue):
                return picked
            if picked is not None:
                st.aux = picked
                st.state = 1

    # case TO — states: 0 fresh, 1 have lo / need hi, 2 counting
    # through aux.  ..e counts 0..e-1 and e.. counts without end.
    def _to(self, node: N.To):
        st = self._st(node)
        int_of = self.ev._int_of
        while True:
            if st.state == 2:
                i = next(st.aux, None)
                if i is not None:
                    return int_value(i)
                st.state = 0 if node.lo is None else 1
            elif st.state == 1:
                v = self.eval(node.hi)
                if v is NOVALUE:
                    st.state = 0
                    continue
                st.aux = iter(range(int_of(st.value, "e1..e2"),
                                    int_of(v, "e1..e2") + 1))
                st.state = 2
            elif node.lo is None:
                v = self.eval(node.hi)
                if v is NOVALUE:
                    return NOVALUE
                st.aux = iter(range(int_of(v, "..e")))
                st.state = 2
            else:
                st.value = self.eval(node.lo)
                if st.value is NOVALUE:
                    return NOVALUE
                if node.hi is None:
                    st.aux = count(int_of(st.value, "e.."))
                    st.state = 2
                else:
                    st.state = 1

    # case ALTERNATE (paper listing)
    def _alternate(self, node: N.Alternate):
        st = self._st(node)
        if st.state == 0:
            u = self.eval(node.left)
            if u is not NOVALUE:
                return u
            st.state = 1
        v = self.eval(node.right)
        if v is NOVALUE:
            st.state = 0
        return v

    # case SEQUENCE
    def _sequence(self, node: N.Sequence):
        st = self._st(node)
        if st.state == 0:
            while self.eval(node.left) is not NOVALUE:
                pass
            st.state = 1
        v = NOVALUE if node.right is None else self.eval(node.right)
        if v is NOVALUE:
            st.state = 0
        return v

    # case WHILE (paper listing): e2 repeats while all of e1 is non-zero.
    def _while(self, node: N.While):
        st = self._st(node)
        while True:
            if st.state == 1:  # producing body values
                v = self.eval(node.body)
                if v is not NOVALUE:
                    return v
                st.state = 0
            u = self.eval(node.cond)
            if u is NOVALUE:
                st.state = 1  # every condition value was non-zero
            elif not self.ev.ops.truthy(u):
                self._reset(node.cond)  # abandon the mid-stream cond
                return NOVALUE

    # case SELECT: the source's values are kept as the generator engine
    # keeps them (Evaluator._select), so e1 is pulled once.
    def _select(self, node: N.Select):
        st = self._st(node)
        if st.aux is None:
            st.aux = ([], self._values(node.seq))
        while True:
            sel = self.eval(node.selector)
            if sel is NOVALUE:
                self._reset(node.seq)  # abandon a mid-stream source
                st.aux = None
                return NOVALUE
            v = self.ev._select(sel, *st.aux)
            if v is not None:
                return v

    # case WITH (paper listing): push(u); yield e2's values; pop().
    # The entry stays pushed *between* eval calls — exactly the
    # coroutine behaviour the paper's push/pop bracket implies.
    def _with(self, node: N.With):
        st = self._st(node)
        while True:
            if st.state == 1:  # entry pushed, producing e2
                v = self.eval(node.right)
                if v is not NOVALUE:
                    return v
                self.ev.scope.pop()
                st.state = 0
            u = self.eval(node.left)
            if u is NOVALUE:
                return NOVALUE
            if self.ev._push_with(u, node.arrow):
                st.state = 1

    # case DFS (paper listing): stack/unstack with the traversal
    # expression generating successors; each step drains the traversal
    # for one node (the inner while in the paper's code).
    def _dfs(self, node: N.Expand):
        st = self._st(node)
        while True:
            if st.state == 1:
                if st.aux[0]:
                    return self.ev._expand_step(node, *st.aux, self._values)
                st.state = 0
            u = self.eval(node.root)
            if u is NOVALUE:
                return NOVALUE
            st.aux = self.ev._expansion(u)
            st.state = 1
