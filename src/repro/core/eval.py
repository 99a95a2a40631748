"""The DUEL evaluator: one Python generator per operator.

The paper describes each operator's semantics as a coroutine with
``yield`` ("The semantics are conveyed equally well by assuming that
eval is a coroutine in which the values of local variables are saved
across calls").  C has no coroutines, so the original hand-compiles
them into an explicit state machine (reproduced in
:mod:`repro.core.statemachine`); Python has them natively, so each
``case`` of the paper's ``eval`` maps onto one generator function here,
frequently line for line.

Every call to :meth:`Evaluator.eval` returns an iterator producing the
node's values lazily; the top-level "drive" loop lives in
:mod:`repro.core.session`.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional

from repro.ctype.declparse import DeclParser, TypeEnv
from repro.ctype.types import (
    ArrayType,
    CHAR,
    CType,
    DOUBLE,
    FunctionType,
    INT,
    LONG,
    PointerType,
    RecordType,
    UINT,
    ULONG,
)
from repro.core import nodes as N
from repro.core.errors import (
    DuelError,
    DuelTargetError,
    DuelTypeError,
)
from repro.core.governor import ResourceGovernor
from repro.target.interface import GovernedBackend, TracingBackend
from repro.target.memory import TargetMemoryFault
from repro.target.program import TargetRuntimeError
from repro.core.ops import Apply
from repro.core.scope import Scope, WithEntry
from repro.core.symbolic import (
    PREC_ASSIGN,
    PREC_RELATIONAL,
    Sym,
    SymBinary,
    SymCall,
    SymCast,
    SymText,
    with_lowered_fold,
)
from repro.core.values import DuelValue, ValueOps, int_value, lvalue, rvalue

_CONST_TYPES = {
    "int": INT, "uint": UINT, "long": LONG, "ulong": ULONG,
    "double": DOUBLE, "char": CHAR,
}


class _BackendTypedefs(dict):
    """TypeEnv typedef mapping that falls back to the debugger backend."""

    def __init__(self, backend):
        super().__init__()
        self._backend = backend

    def __missing__(self, name: str):
        ctype = self._backend.get_target_typedef(name)
        if ctype is None:
            raise KeyError(name)
        self[name] = ctype
        return ctype

    def __contains__(self, name) -> bool:
        if super().__contains__(name):
            return True
        return self._backend.get_target_typedef(name) is not None


class BackendTypeEnv(TypeEnv):
    """A TypeEnv view over the debugger backend's type tables.

    Lets DUEL casts and declarations name the target's structs, unions,
    enums and typedefs (``(struct symbol *)p``) while still allowing
    debugger-local definitions.
    """

    def __init__(self, backend):
        super().__init__()
        self._backend = backend
        self.typedefs = _BackendTypedefs(backend)  # type: ignore[assignment]

    def struct_tag(self, tag: str):
        found = self._backend.get_target_struct(tag)
        if found is not None:
            return found
        return super().struct_tag(tag)

    def union_tag(self, tag: str):
        found = self._backend.get_target_union(tag)
        if found is not None:
            return found
        return super().union_tag(tag)

    def enum_tag(self, tag: str):
        found = self._backend.get_target_enum(tag)
        if found is not None:
            return found
        return super().enum_tag(tag)

    def is_type_name(self, name: str) -> bool:
        return name in self.typedefs


#: Sentinel: "caller did not override this limit".
_KEEP_DEFAULT = object()


class EvalOptions:
    """Tunable evaluation behaviour (session-level switches).

    All per-query *limits* live on the attached
    :class:`~repro.core.governor.ResourceGovernor`; the historical
    ``max_steps`` / ``max_expand`` attributes remain as read/write
    views onto it.
    """

    def __init__(self, symbolic: bool = True, max_steps: int = 10_000_000,
                 cycle_mode: str = "stop", max_expand: int = 1_000_000,
                 governor: Optional[ResourceGovernor] = None,
                 deadline_ms=_KEEP_DEFAULT, max_lines=_KEEP_DEFAULT):
        #: Compute symbolic derivations (P3 benchmarks toggle this off).
        self.symbolic = symbolic
        #: "stop" skips revisited nodes in -->; "strict" mimics the
        #: original implementation, which "does not handle cycles".
        self.cycle_mode = cycle_mode
        #: Owns every per-query limit, counter, and the cancel token.
        self.governor = governor if governor is not None \
            else ResourceGovernor()
        self.governor.set_limit("steps", max_steps)
        self.governor.set_limit("expand", max_expand)
        if deadline_ms is not _KEEP_DEFAULT:
            self.governor.set_limit("deadline_ms", deadline_ms)
        if max_lines is not _KEEP_DEFAULT:
            self.governor.set_limit("lines", max_lines)

    # -- legacy limit views (tests and callers assign these directly) ------
    @property
    def max_steps(self) -> Optional[int]:
        """Generator-step budget guarding runaway ``e..`` loops."""
        return self.governor.limits["steps"]

    @max_steps.setter
    def max_steps(self, value: Optional[int]) -> None:
        self.governor.set_limit("steps", value)

    @property
    def max_expand(self) -> Optional[int]:
        """Bound on nodes expanded per --> root."""
        return self.governor.limits["expand"]

    @max_expand.setter
    def max_expand(self, value: Optional[int]) -> None:
        self.governor.set_limit("expand", value)


class Evaluator:
    """Evaluates DUEL ASTs against a debugger backend."""

    def __init__(self, backend, options: Optional[EvalOptions] = None):
        self.options = options or EvalOptions()
        self.governor = self.options.governor
        # All target traffic flows through the governed wrapper so
        # call/allocation quotas and the cancel token are enforced at
        # the interface boundary, whatever engine drives the AST; the
        # tracing wrapper outermost counts reads/writes/calls and hands
        # them (with addresses, for the memory observatory) to the
        # active tracer.  The tracing hop binds its reads, writes and
        # ``is_mapped`` straight to the target's when it is built.
        self.backend = TracingBackend(GovernedBackend(backend,
                                                      self.governor))
        #: The active QueryTracer, or None (tracing off: the only cost
        #: is the predicate check in :meth:`eval`).
        self.tracer = None
        #: Cumulative string-literal cache traffic (metrics registry
        #: reads per-query deltas).
        self.string_cache_hits = 0
        self.string_cache_misses = 0
        self.ops = ValueOps(self.backend)
        self.apply = Apply(self.ops)
        self.scope = Scope(self.backend)
        self.type_env = BackendTypeEnv(self.backend)
        self._decl_parser = DeclParser(self.type_env)
        self._string_cache: dict[bytes, int] = {}
        #: This query's operand drivers, by ``id`` of the operand node
        #: (nodes are unhashable); see :meth:`_operand`.
        self._operands: dict[int, Callable[[], Iterable[DuelValue]]] = {}
        self._dispatch: dict[type, Callable] = {
            N.Constant: self._eval_constant,
            N.StringLiteral: self._eval_string,
            N.Name: self._eval_name,
            N.Underscore: self._eval_underscore,
            N.Unary: self._eval_unary,
            N.IncDec: self._eval_incdec,
            N.Binary: self._eval_binary,
            N.Assign: self._eval_assign,
            N.CompareYield: self._eval_compare_yield,
            N.Alternate: self._eval_alternate,
            N.To: self._eval_to,
            N.AndAnd: self._eval_branch,
            N.OrOr: self._eval_branch,
            N.If: self._eval_branch,
            N.While: self._eval_while,
            N.For: self._eval_for,
            N.Sequence: self._eval_sequence,
            N.Imply: self._eval_branch,
            N.Define: self._eval_define,
            N.Declaration: self._eval_declaration,
            N.With: self._eval_with,
            N.Expand: self._eval_expand,
            N.Select: self._eval_select,
            N.Reduce: self._eval_reduce,
            N.IndexAlias: self._eval_index_alias,
            N.Until: self._eval_until,
            N.Group: self._eval_group,
            N.Index: self._eval_index,
            N.Call: self._eval_call,
            N.Cast: self._eval_cast,
            N.SizeOf: self._eval_sizeof,
            N.FrameExpr: self._eval_frame,
        }

    # -- plumbing ----------------------------------------------------------
    def reset(self) -> None:
        """Start a fresh top-level evaluation (budgets, deadline, token,
        and no operand carried over from the last query)."""
        self.governor.begin_query()
        self._operands.clear()

    @property
    def _steps(self) -> int:
        """Generator steps charged so far this query (legacy view)."""
        return self.governor.steps

    def invalidate_target_caches(self) -> None:
        """Forget target-resident scratch after a target rollback.

        Cached string-literal addresses point into allocations that a
        snapshot restore has undone; keeping them would alias whatever
        the target allocates there next.
        """
        self._string_cache.clear()

    def set_tracer(self, tracer) -> None:
        """Attach (or detach, with None) a per-query tracer.

        Propagated to the tracing backend so target traffic lands on
        the span of whichever node is being pulled (and, for an
        access-traced query, in the tracer's access ring).
        """
        self.tracer = tracer
        self.backend.tracer = tracer

    def eval(self, node: N.Node) -> Iterator[DuelValue]:
        """All values of ``node``, lazily (the paper's ``eval``)."""
        handler = self._dispatch.get(type(node))
        if handler is None:  # pragma: no cover - parser emits known nodes
            raise DuelError(f"no evaluator for {node.op}")
        tracer = self.tracer
        if tracer is None:
            return self._counted(handler(node))
        return tracer.wrap(node, self._counted(handler(node)))

    def _counted(self, it: Iterator[DuelValue]) -> Iterator[DuelValue]:
        # Inlined ResourceGovernor.step(): this wrapper runs once per
        # value produced by every node, so a method call here is the
        # single largest governance cost (~20% on the P3 benchmark).
        governor = self.governor
        for value in it:
            n = governor.steps + 1
            governor.steps = n
            if n >= governor._next_check:
                governor.step_check()
            yield value

    def parse_type(self, text: str) -> CType:
        return self._decl_parser.parse_type(text)

    def is_type_name(self, name: str) -> bool:
        return self.type_env.is_type_name(name)

    def _sym(self, make: Callable[[], Sym]) -> Sym:
        """Build a symbolic expression unless disabled (ablation P3)."""
        if self.options.symbolic:
            self.governor.sym_node()
            return make()
        return _NO_SYM

    # ==================================================================
    # leaves
    # ==================================================================
    def _eval_constant(self, node: N.Constant):
        sym = self._sym(lambda: SymText(node.text or str(node.value)))
        yield rvalue(_CONST_TYPES[node.type_hint], node.value, sym)

    def _eval_string(self, node: N.StringLiteral):
        address = self._string_cache.get(node.value)
        if address is None:
            self.string_cache_misses += 1
            try:
                address = self.backend.alloc_target_space(
                    len(node.value) + 1)
                self.backend.put_target_bytes(address, node.value + b"\0")
            except TargetMemoryFault as fault:
                raise DuelTargetError(
                    f"cannot place string literal in target: {fault}",
                    fault) from fault
            self._string_cache[node.value] = address
        else:
            self.string_cache_hits += 1
        sym = self._sym(lambda: SymText(node.text or '"..."'))
        yield rvalue(PointerType(CHAR), address, sym)

    def _eval_name(self, node: N.Name):
        yield self.scope.fetch(node.name)

    def _eval_underscore(self, node: N.Underscore):
        yield self.scope.fetch("_")

    # ==================================================================
    # unary / binary C operators (generator-lifted pointwise)
    # ==================================================================
    def _eval_unary(self, node: N.Unary):
        for u in self.eval(node.kid):
            yield self._unary(node, u)

    def _unary(self, node: N.Unary, u: DuelValue) -> DuelValue:
        return getattr(self.apply, _UNARY[node.operator])(u)

    def _eval_incdec(self, node: N.IncDec):
        for u in self.eval(node.kid):
            sym = self._sym(lambda: _incdec_sym(node, u.sym))
            yield self.apply.incdec(node.operator, u, node.postfix, sym)

    def _eval_binary(self, node: N.Binary):
        # The paper's PLUS/MINUS/... case: all combinations of operand
        # values, one apply per pair.
        binary = self.apply.binary
        right = self._operand(node.right)
        for u in self.eval(node.left):
            for v in right():
                yield binary(node.operator, u, v)

    def _eval_assign(self, node: N.Assign):
        for u in self.eval(node.left):
            for v in self.eval(node.right):
                yield self._assign(node, u, v)

    def _assign(self, node: N.Assign, u: DuelValue, v: DuelValue) -> DuelValue:
        sym = self._sym(lambda: SymBinary(
            node.operator, u.sym, v.sym, PREC_ASSIGN))
        if node.operator == "=":
            return self.apply.assign(u, v, sym)
        return self.apply.compound_assign(node.operator[:-1], u, v, sym)

    def _eval_compare_yield(self, node: N.CompareYield):
        # Paper IFGT...: yields the *left* operand when the test holds.
        compare_true = self.apply.compare_true
        right = self._operand(node.right)
        for u in self.eval(node.left):
            for v in right():
                if compare_true(node.operator, u, v):
                    yield u

    def _operand(self, node: N.Node) -> Callable[[], Iterable[DuelValue]]:
        """Drive ``node`` afresh on each call: a right operand is
        re-evaluated for every value of the left one.

        An untraced operand made only of constants and the C operators
        over them has one value that cannot change, so it is driven
        once per query, on its first call (the paper's "could be done
        at compile time", done at run time).  A later call, from this
        node activation or any later one, adds what that drive charged
        the governor (steps and symbolic nodes) in one go and returns
        the value again, or drives afresh when a checkpoint or limit
        lies within that run, so stats, budgets, truncation points and
        checkpoints stay where re-driving puts them.  A traced drive
        re-drives, so per-node pulls and spans stay as they are.
        :meth:`reset` forgets every driver, so nothing outlives its
        query (nor a ``symbolic`` switch between queries).
        """
        if self.tracer is not None:
            return lambda: self.eval(node)
        operands = self._operands
        hoisted = operands.get(id(node))
        if hoisted is not None:
            return hoisted
        if not _is_constant(node):
            operands[id(node)] = lambda: self.eval(node)
            return operands[id(node)]
        governor = self.governor
        values: list[DuelValue] = []
        run = None  # (steps, symnodes) that one drive charges

        def drive():
            nonlocal values, run
            if run is not None and governor.add_run(*run):
                return values
            steps, symnodes = governor.steps, governor.symnodes
            # A fresh list: an earlier activation may still be
            # iterating the last one.
            values = list(self.eval(node))
            run = (governor.steps - steps, governor.symnodes - symnodes)
            return values
        operands[id(node)] = drive
        return drive

    # ==================================================================
    # generators proper
    # ==================================================================
    def _eval_alternate(self, node: N.Alternate):
        # case ALTERNATE: all of e1's values, then all of e2's.
        yield from self.eval(node.left)
        yield from self.eval(node.right)

    def _eval_to(self, node: N.To):
        # case TO: integers from e1 to e2 inclusive; ..e is 0..e-1 and
        # e.. is unbounded.
        if node.lo is None:
            for v in self.eval(node.hi):
                hi = self._int_of(v, "..e")
                for i in range(0, hi):
                    yield int_value(i)
            return
        if node.hi is None:
            for u in self.eval(node.lo):
                lo = self._int_of(u, "e..")
                i = lo
                while True:
                    yield int_value(i)
                    i += 1
            return
        for u in self.eval(node.lo):
            for v in self.eval(node.hi):
                lo = self._int_of(u, "e1..e2")
                hi = self._int_of(v, "e1..e2")
                for i in range(lo, hi + 1):
                    yield int_value(i)

    def _int_of(self, v: DuelValue, where: str) -> int:
        loaded = self.ops.load(v)
        if not v.ctype.strip_typedefs().is_integer:
            raise DuelTypeError(f"non-integer operand of {where}",
                                v.sym.render())
        return int(loaded)

    def _eval_branch(self, node: N.Node):
        # case IF, ANDAND, OROR, IMPLY: each value of the condition (the
        # first kid) picks what follows it, see _branch.
        for u in self.eval(node.kids[0]):
            picked = self._branch(node, u)
            if isinstance(picked, DuelValue):
                yield picked
            elif picked is not None:
                yield from self.eval(picked)

    def _branch(self, node: N.Node, u: DuelValue):
        """What one condition value ``u`` of a branching operator
        produces: a subexpression whose values follow, a value, or None.

        ``e1 && e2`` gives e2's values for each non-zero value of e1;
        its dual ``e1 || e2``, consistent with C when single-valued,
        gives 1 for a non-zero value and e2's values for a zero one.
        """
        if isinstance(node, N.Imply):
            return node.right
        truthy = self.ops.truthy(u)
        if isinstance(node, N.If):
            return node.then if truthy else node.els
        if isinstance(node, N.AndAnd):
            return node.right if truthy else None
        return rvalue(INT, 1, u.sym) if truthy else node.right

    def _eval_while(self, node: N.While):
        # case WHILE: e2 repeats as long as every value of e1 is non-zero.
        while True:
            for u in self.eval(node.cond):
                if not self.ops.truthy(u):
                    return
            yield from self.eval(node.body)

    def _eval_for(self, node: N.For):
        # for is while with init/step, both drained for side effects.
        if node.init is not None:
            _drain(self.eval(node.init))
        while True:
            if node.cond is not None:
                stop = False
                for u in self.eval(node.cond):
                    if not self.ops.truthy(u):
                        stop = True
                        break
                if stop:
                    return
            yield from self.eval(node.body)
            if node.step is not None:
                _drain(self.eval(node.step))

    def _eval_sequence(self, node: N.Sequence):
        # case SEQUENCE: drain e1, then e2's values.
        _drain(self.eval(node.left))
        if node.right is not None:
            yield from self.eval(node.right)

    def _eval_define(self, node: N.Define):
        # case DEFINE: alias the name to each value in turn.
        for u in self.eval(node.kid):
            yield self._define(node, u)

    def _define(self, node: N.Define, u: DuelValue) -> DuelValue:
        self.scope.alias(node.name, u)
        return u.with_sym(
            SymText(node.name) if self.options.symbolic else _NO_SYM)

    def _eval_declaration(self, node: N.Declaration):
        # "Duel declarations ... establish aliases to newly allocated
        # target locations."  Produces no values.
        for decl in self._decl_parser.parse(node.text):
            if decl.is_typedef:
                continue
            size = max(decl.ctype.size, 1)
            try:
                address = self.backend.alloc_target_space(size)
                self.backend.put_target_bytes(address, bytes(size))
            except TargetMemoryFault as fault:
                raise DuelTargetError(
                    f"cannot allocate debugger variable "
                    f"{decl.name!r}: {fault}", fault) from fault
            self.scope.alias(decl.name,
                             lvalue(decl.ctype, address, SymText(decl.name)))
        return
        yield  # pragma: no cover - makes this a generator

    # ==================================================================
    # with / expansion
    # ==================================================================
    def _push_with(self, u: DuelValue, arrow: bool) -> bool:
        """Push the scope entry for e1's value ``u`` in e1.e2, e1->e2;
        False when there is none.

        A NULL pointer on the left of ``->`` generates nothing (the
        paper's ``hash[0..1023]->scope = 0 ;`` clears the head of each
        *non-empty* list); a non-null but unmapped pointer raises the
        paper's "Illegal memory reference" error.
        """
        operand = u
        if arrow:
            stripped = u.ctype.strip_typedefs()
            if isinstance(stripped, ArrayType):
                # Arrays of records: a->f behaves like a[0].f in C.
                operand = lvalue(stripped.element, u.address, u.sym)
            elif (isinstance(stripped, PointerType)
                    and int(self.ops.load(u)) == 0):
                return False
            else:
                operand = self.apply.deref(u, sym=u.sym, pattern="x->y")
        self.scope.push(WithEntry(operand, arrow=arrow, underscore=u))
        return True

    def _eval_with(self, node: N.With):
        # case WITH: evaluate e2 with e1's value pushed on the
        # name-resolution stack.
        for u in self.eval(node.left):
            if self._push_with(u, node.arrow):
                try:
                    yield from self.eval(node.right)
                finally:
                    self.scope.pop()

    def _eval_expand(self, node: N.Expand):
        # case DFS (and the BFS extension): expand the data structure
        # from each root, using e2 to generate successors.
        for u in self.eval(node.root):
            pending, visited = self._expansion(u)
            while pending:
                yield self._expand_step(node, pending, visited, self.eval)

    def _expansion(self, root: DuelValue) -> tuple[deque, set]:
        """The pending nodes and visited set of a new expansion."""
        visited: set[tuple] = set()
        pending = deque([root] if self._expandable(root, visited) else ())
        return pending, visited

    def _expand_step(self, node: N.Expand, pending: deque, visited: set,
                     drive: Callable[[N.Node], Iterable[DuelValue]]):
        """Take the next node of an expansion, queue the successors that
        ``drive(node.traversal)`` generates in its scope, and return it."""
        v = pending.popleft() if node.breadth_first else pending.pop()
        operand = self._expand_operand(v)
        if operand is not None:
            self.scope.push(WithEntry(operand, arrow=True, chain=True,
                                      underscore=v))
            try:
                children = [w for w in drive(node.traversal)
                            if self._expandable(w, visited)]
            finally:
                self.scope.pop()
            pending.extend(children if node.breadth_first
                           else reversed(children))
        self.governor.charge("expand")
        return v

    def _expand_operand(self, v: DuelValue) -> Optional[DuelValue]:
        stripped = v.ctype.strip_typedefs()
        if isinstance(stripped, PointerType):
            target = stripped.target.strip_typedefs()
            try:
                size = max(target.size, 1)
            except TypeError:
                return None
            address = int(self.ops.load(v))
            if address == 0 or not self.backend.is_mapped(address, size):
                return None
            return lvalue(stripped.target, address, v.sym)
        if isinstance(stripped, RecordType) and v.is_lvalue:
            return v
        return None

    def _expandable(self, v: DuelValue, visited: set) -> bool:
        """Non-null, mapped, and (in "stop" mode) not yet visited; a
        node that is marks itself visited."""
        stripped = v.ctype.strip_typedefs()
        if isinstance(stripped, PointerType):
            address = int(self.ops.load(v))
            if address == 0:
                return False
            target = stripped.target.strip_typedefs()
            try:
                size = max(target.size, 1)
            except TypeError:
                size = 1
            if not self.backend.is_mapped(address, size):
                return False
            key = ("ptr", address)
        elif isinstance(stripped, RecordType) and v.is_lvalue:
            key = ("rec", v.address)
        else:
            return False
        if self.options.cycle_mode == "stop":
            if key in visited:
                return False
            visited.add(key)
        return True

    # ==================================================================
    # sequence operators
    # ==================================================================
    def _eval_select(self, node: N.Select):
        # case SELECT: the e2-th (0-based) values of e1's sequence.  The
        # paper notes the real implementation "avoids the re-evaluation
        # of e2 when possible": we pull e1 once and cache.
        cache: list[DuelValue] = []
        source = self.eval(node.seq)
        for sel in self.eval(node.selector):
            v = self._select(sel, cache, source)
            if v is not None:
                yield v

    def _select(self, sel: DuelValue, cache: list,
                source: Iterator[DuelValue]) -> Optional[DuelValue]:
        """The value ``sel`` selects from a sequence whose first values
        ``cache`` holds and whose rest ``source`` produces, or None."""
        k = self._int_of(sel, "e1[[e2]]")
        if k >= len(cache):
            cache.extend(islice(source, k + 1 - len(cache)))
        if not 0 <= k < len(cache):
            return None
        v = cache[k]
        if self.options.symbolic:
            return v.with_sym(with_lowered_fold(v.sym, 2))
        return v

    def _eval_reduce(self, node: N.Reduce):
        # Reductions substitute their computed value in the symbolic
        # output, like generators do (the paper shows ``#/...`` printing
        # a bare ``5``).
        values = self.eval(node.kid)
        if node.operator == "#":
            count = sum(1 for _ in values)
            yield int_value(count)
            return
        if node.operator in ("&&", "||"):
            if node.operator == "&&":
                result = all(self.ops.truthy(v) for v in values)
            else:
                result = any(self.ops.truthy(v) for v in values)
            yield int_value(int(result))
            return
        total = None
        ctype: CType = INT
        for v in values:
            loaded = self.ops.load_value(v)
            if not loaded.ctype.is_arithmetic:
                raise DuelTypeError(
                    f"non-arithmetic value in {node.operator}/ reduction",
                    v.sym.render())
            x = loaded.value
            if total is None:
                total, ctype = x, loaded.ctype
            elif node.operator == "+":
                total = total + x
            elif node.operator == "*":
                total = total * x
            elif node.operator == "<?":
                total = min(total, x)
            elif node.operator == ">?":
                total = max(total, x)
            if loaded.ctype.strip_typedefs().is_float:
                ctype = DOUBLE
        if total is None:
            # Empty sequence: count-like identity (0 for +, 1 for *).
            total = 1 if node.operator == "*" else 0
        sym = self._sym(lambda: SymText(str(total)))
        yield rvalue(ctype, total, sym)

    def _eval_index_alias(self, node: N.IndexAlias):
        # e#n: n aliases the 0-based position of each value.
        for position, v in enumerate(self.eval(node.kid)):
            self.scope.alias(node.name, int_value(position))
            yield v

    def _eval_until(self, node: N.Until):
        # e@c: e's values until the guard fires (exclusive).  A constant
        # guard (possibly signed) means "stop at the first value equal
        # to c"; any other guard is evaluated in the value's scope and
        # fires when non-zero.
        constant = _guard_constant(node.guard)
        for v in self.eval(node.kid):
            if constant is not None:
                loaded = self.ops.load(v)
                if loaded == constant:
                    return
            else:
                self.scope.push(WithEntry(v, arrow=False))
                try:
                    fired = any(self.ops.truthy(g)
                                for g in self.eval(node.guard))
                finally:
                    self.scope.pop()
                if fired:
                    return
            yield v

    def _eval_group(self, node: N.Group):
        # {e}: value substituted for symbol in the display.
        formatter = getattr(self, "formatter", None)
        if formatter is None:
            from repro.core.format import ValueFormatter
            formatter = ValueFormatter(self.ops)
            self.formatter = formatter
        for v in self.eval(node.kid):
            if self.options.symbolic:
                yield v.with_sym(SymText(formatter.format(v)))
            else:
                yield v

    # ==================================================================
    # indexing / calls / casts
    # ==================================================================
    def _eval_index(self, node: N.Index):
        for u in self.eval(node.base):
            for v in self.eval(node.index):
                yield self.apply.index(u, v)

    def _eval_call(self, node: N.Call):
        # Generator arguments: "the function is called repeatedly for
        # all combinations of values".
        for f in self.eval(node.func):
            yield from self._call_combinations(f, node.args, [])

    def _call_combinations(self, f: DuelValue, args: tuple[N.Node, ...],
                           got: list[DuelValue]):
        if len(got) == len(args):
            yield self._invoke(f, got)
            return
        for v in self.eval(args[len(got)]):
            got.append(v)
            yield from self._call_combinations(f, args, got)
            got.pop()

    def _invoke(self, f: DuelValue, args: list[DuelValue]) -> DuelValue:
        ftype = f.ctype.strip_typedefs()
        if isinstance(ftype, PointerType) and ftype.target.is_function:
            ftype = ftype.target.strip_typedefs()
        if not isinstance(ftype, FunctionType):
            raise DuelTypeError(
                f"called object is not a function ({f.ctype.name()})",
                f.sym.render())
        raw_args = []
        for index, a in enumerate(args):
            loaded = self.ops.load_value(a)
            if index < len(ftype.params):
                from repro.ctype.convert import convert_value
                raw_args.append(convert_value(
                    loaded.value, loaded.ctype, ftype.params[index]))
            else:
                raw_args.append(loaded.value)
        target = f.func_name if f.func_name else None
        if target is None:
            if f.is_lvalue:
                target = int(self.ops.load(f))
            else:
                target = int(f.value)
        try:
            result = self.backend.call_target_func(target, raw_args)
        except (TargetMemoryFault, TargetRuntimeError) as fault:
            # A refused/failed target call — or target code that ran
            # away or went wrong — is a query error, not a debugger
            # crash: surface it as a DuelError so sessions roll it
            # back, report it (with any partial results) and stay usable.
            raise DuelTargetError(
                f"target call failed: {fault}", fault) from fault
        sym = self._sym(lambda: SymCall(f.sym, tuple(a.sym for a in args)))
        if ftype.result.is_void:
            return rvalue(ftype.result, None, sym)
        return rvalue(ftype.result, result, sym)

    def _eval_cast(self, node: N.Cast):
        ctype = self.parse_type(node.type_text)
        for u in self.eval(node.kid):
            sym = self._sym(lambda: SymCast(node.type_text, u.sym))
            yield self.apply.cast(ctype, u, sym)

    def _eval_sizeof(self, node: N.SizeOf):
        if node.type_text is not None:
            ctype = self.parse_type(node.type_text)
            sym = self._sym(lambda: SymText(f"sizeof({node.type_text})"))
            yield self.apply.sizeof(ctype, sym)
            return
        for u in self.eval(node.kid):
            sym = self._sym(lambda: SymText(f"sizeof {u.sym.render()}"))
            yield self.apply.sizeof(u.ctype, sym)

    def _eval_frame(self, node: N.FrameExpr):
        # Extension (paper Discussion: exploring "unnamed" state such as
        # locals of every active frame): frame(i) yields a pseudo-value
        # whose scope is frame i.  Used as frame(i).x via with.
        for u in self.eval(node.index):
            index = self._int_of(u, "frame(e)")
            count = self.backend.frames_count()
            if not 0 <= index < count:
                continue
            yield _FrameValue(index,
                              self._sym(lambda: SymText(f"frame({index})")))


class _FrameValue(DuelValue):
    """Pseudo-value representing one stack frame (for frame(i).x); the
    scope resolves its names, so it pickles like any other value."""

    def __init__(self, index: int, sym: Sym):
        super().__init__(ctype=INT, sym=sym, value=index)
        self.frame_index = index

    def with_sym(self, sym: Sym) -> "_FrameValue":
        return _FrameValue(self.frame_index, sym)


_NO_SYM = SymText("?")


def _drain(it: Iterator) -> None:
    for _ in it:
        pass


#: Unary operator -> the Apply method that applies it.
_UNARY = {"-": "negate", "+": "plus", "!": "lognot", "~": "bitnot",
          "*": "deref", "&": "addressof"}

#: Unary operators that compute from their operand's value alone.
_VALUE_UNARY = frozenset("-+!~")


def _is_constant(node: N.Node) -> bool:
    """Whether ``node`` is made only of constants and the unary and
    binary C operators over them: one value that cannot change."""
    if isinstance(node, N.Constant):
        return True
    if isinstance(node, N.Unary):
        return node.operator in _VALUE_UNARY and _is_constant(node.kid)
    if isinstance(node, N.Binary):
        return _is_constant(node.left) and _is_constant(node.right)
    return False


def _guard_constant(node: N.Node):
    """The literal value of an @-guard, or None if it's an expression."""
    if isinstance(node, N.Constant):
        return node.value
    if (isinstance(node, N.Unary) and node.operator in ("-", "+")
            and isinstance(node.kid, N.Constant)):
        value = node.kid.value
        return -value if node.operator == "-" else value
    return None


def _incdec_sym(node: N.IncDec, operand_sym: Sym) -> Sym:
    if node.postfix:
        return SymText(operand_sym.render() + node.operator, PREC_RELATIONAL)
    return SymText(node.operator + operand_sym.render(), PREC_RELATIONAL)


