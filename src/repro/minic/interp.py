"""The mini-C interpreter.

Executes parsed C against a :class:`~repro.target.program.TargetProgram`:
globals in the data segment, locals in simulated stack frames, heap via
the simulated malloc.  Expression semantics reuse the same
:class:`~repro.core.ops.Apply` operator engine DUEL uses, which keeps
C-vs-DUEL benchmark comparisons apples-to-apples (identical arithmetic,
pointer, and memory machinery on both sides).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.ctype.convert import convert_value
from repro.ctype.types import (
    ArrayType,
    CHAR,
    CType,
    FunctionType,
    INT,
    PointerType,
    RecordType,
    ULONG,
)
from repro.core.ops import Apply
from repro.core.symbolic import SymText
from repro.core.values import DuelValue, ValueOps, lvalue, rvalue
from repro.minic import cast as A
from repro.minic.errors import MiniCRuntimeError
from repro.minic.parser import parse_program
from repro.target.interface import SimulatorBackend
from repro.target.program import TargetProgram
from repro.target.symbols import SymbolKind

_SYM = SymText("")  # mini-C carries no symbolic derivations

#: Statements between polls of the running query's checkpoint (see
#: :attr:`~repro.target.program.TargetProgram.checkpoint`): at a few
#: microseconds a statement, a deadline or a ^C is noticed within a few
#: milliseconds, and the poll costs the per-statement path nothing.
POLL_EVERY = 1024

#: Deepest call nesting one top-level target call may reach (itself
#: included).  Each level costs the interpreter about ten Python
#: frames, so runaway recursion trips this bound, not Python's own
#: recursion limit, however deep the caller's stack already is.
MAX_CALL_DEPTH = 64


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class Interpreter:
    """Loads and runs mini-C programs in a simulated inferior."""

    def __init__(self, program: TargetProgram, max_steps: int = 50_000_000):
        self.program = program
        self.backend = SimulatorBackend(program)
        self.ops = ValueOps(self.backend)
        self.apply = Apply(self.ops)
        #: Statement cap for one top-level target call (``main``
        #: included); nested calls share their caller's count.
        self.max_steps = max_steps
        self._steps = 0
        #: The statement count that next takes :meth:`_check`.
        self._next_check = min(max_steps + 1, POLL_EVERY)
        self._depth = 0
        self.functions: dict[str, A.FuncDef] = {}
        #: Debugger hook: called as trace(event, payload) around
        #: execution — events "call" (FuncDef), "stmt" (Stmt), "return"
        #: (FuncDef).  See repro.debugger.
        self.trace = None

    # ==================================================================
    # loading
    # ==================================================================
    def load(self, unit: A.Program) -> None:
        """Install a parsed translation unit into the target."""
        for var in unit.variables:
            symbol = self.program.define(var.name, var.ctype)
            if var.init is not None:
                self._initialize(symbol.address, var.ctype, var.init)
        for func in unit.functions:
            self._register_function(func)

    def load_source(self, source: str) -> None:
        """Parse and install C source (types go into the target's env)."""
        unit, _ = parse_program(source, self.program.types)
        self.load(unit)

    def _register_function(self, func: A.FuncDef) -> None:
        self.functions[func.name] = func

        def impl(program: TargetProgram, *raw_args, _func=func):
            return self._call_function(_func, raw_args)

        self.program.define_function(func.name, func.ctype, impl)

    # ==================================================================
    # initializers
    # ==================================================================
    def _initialize(self, address: int, ctype: CType,
                    init: A.Initializer) -> None:
        stripped = ctype.strip_typedefs()
        if init.is_list:
            if isinstance(stripped, ArrayType):
                for index, item in enumerate(init.items):
                    if stripped.length is not None and index >= stripped.length:
                        raise MiniCRuntimeError("too many array initializers")
                    self._initialize(address + index * stripped.element.size,
                                     stripped.element, item)
                return
            if isinstance(stripped, RecordType):
                fields = [f for f in stripped.fields if f.name or True]
                for field, item in zip(fields, init.items):
                    self._initialize(address + field.offset, field.ctype, item)
                return
            if len(init.items) == 1:
                self._initialize(address, ctype, init.items[0])
                return
            raise MiniCRuntimeError(
                f"brace initializer for scalar {ctype.name()}")
        value = self.eval(init.expr)
        if (isinstance(stripped, ArrayType)
                and isinstance(init.expr, A.StrLit)):
            raw = init.expr.value + b"\0"
            self.program.memory.write(address, raw)
            return
        loaded = self.ops.load_value(value)
        converted = convert_value(loaded.value, loaded.ctype, ctype)
        self.program.write_value(address, ctype, converted)

    # ==================================================================
    # calls
    # ==================================================================
    def _call_function(self, func: A.FuncDef, raw_args: Sequence):
        ftype = func.ctype
        assert isinstance(ftype, FunctionType)
        if self._depth == 0:
            self._steps = 0
            self._next_check = min(self.max_steps + 1, POLL_EVERY)
        elif self._depth >= MAX_CALL_DEPTH:
            raise MiniCRuntimeError(
                f"call depth exceeded {MAX_CALL_DEPTH} "
                f"(calling {func.name})")
        frame = self.program.stack.push(func.name)
        self._depth += 1
        try:
            for name, ptype, raw in zip(func.param_names, ftype.params,
                                        raw_args):
                symbol = frame.declare(name, ptype, SymbolKind.PARAMETER)
                if raw is not None:
                    self.program.write_value(symbol.address, ptype, raw)
            # Debugger "call" events fire after the prologue so that
            # breakpoint handlers see bound parameters (as gdb does).
            if self.trace is not None:
                self.trace("call", func)
            try:
                self._exec_block(func.body, frame)
            except _Return as ret:
                if ret.value is None or ftype.result.is_void:
                    return None
                loaded = self.ops.load_value(ret.value)
                return convert_value(loaded.value, loaded.ctype, ftype.result)
            return None
        finally:
            self._depth -= 1
            if self.trace is not None:
                self.trace("return", func)
            self.program.stack.pop()

    def call(self, name: str, *raw_args):
        """Call a loaded function by name with raw Python arguments."""
        return self.program.call(name, raw_args)

    def run_main(self, argv: Optional[Sequence[str]] = None):
        """Run main(), installing argc/argv when the program wants them."""
        main = self.functions.get("main")
        if main is None:
            raise MiniCRuntimeError("program has no main()")
        args: list = []
        if main.param_names:
            argv = list(argv or ["a.out"])
            argv_sym = self.program.set_argv(argv)
            argc = len(argv)
            argv_value = self.program.read_value(
                argv_sym.address, argv_sym.ctype)
            args = [argc, argv_value][:len(main.param_names)]
        return self.program.call("main", args)

    # ==================================================================
    # statements
    # ==================================================================
    def _step(self, line: int) -> None:
        self._steps += 1
        if self._steps >= self._next_check:
            self._check(line)

    def _check(self, line: int) -> None:
        """Slow path of :meth:`_step`, every :data:`POLL_EVERY`
        statements and once past the cap: enforce the cap, and poll the
        checkpoint of the query whose call is running, if any (a
        deadline or a ^C raises out of the call from here)."""
        if self._steps > self.max_steps:
            raise MiniCRuntimeError(
                f"execution exceeded {self.max_steps} steps (line {line})")
        checkpoint = self.program.checkpoint
        if checkpoint is not None:
            checkpoint()
        self._next_check = min(self.max_steps + 1,
                               self._steps + POLL_EVERY)

    def _exec_block(self, block: A.Block, frame) -> None:
        for stmt in block.body:
            self._exec(stmt, frame)

    def _exec(self, stmt: A.Stmt, frame) -> None:
        self._step(stmt.line)
        if self.trace is not None and not isinstance(stmt, A.Block):
            self.trace("stmt", stmt)
        if isinstance(stmt, A.ExprStmt):
            if stmt.expr is not None:
                self.eval(stmt.expr)
        elif isinstance(stmt, A.DeclStmt):
            for name, ctype, init in stmt.decls:
                if frame is None:
                    raise MiniCRuntimeError("declaration outside a function")
                symbol = frame.declare(name, ctype)
                if init is not None:
                    self._initialize(symbol.address, ctype, init)
        elif isinstance(stmt, A.Block):
            self._exec_block(stmt, frame)
        elif isinstance(stmt, A.IfStmt):
            if self._truthy(stmt.cond):
                self._exec(stmt.then, frame)
            elif stmt.els is not None:
                self._exec(stmt.els, frame)
        elif isinstance(stmt, A.WhileStmt):
            while self._truthy(stmt.cond):
                self._step(stmt.line)
                try:
                    self._exec(stmt.body, frame)
                except _Break:
                    break
                except _Continue:
                    continue
        elif isinstance(stmt, A.DoWhileStmt):
            while True:
                self._step(stmt.line)
                try:
                    self._exec(stmt.body, frame)
                except _Break:
                    break
                except _Continue:
                    pass
                if not self._truthy(stmt.cond):
                    break
        elif isinstance(stmt, A.ForStmt):
            if stmt.init is not None:
                if isinstance(stmt.init, A.DeclStmt):
                    self._exec(stmt.init, frame)
                else:
                    self.eval(stmt.init)
            while stmt.cond is None or self._truthy(stmt.cond):
                self._step(stmt.line)
                try:
                    self._exec(stmt.body, frame)
                except _Break:
                    break
                except _Continue:
                    pass
                if stmt.step is not None:
                    self.eval(stmt.step)
            else:  # pragma: no cover - loop exits via condition/break
                pass
        elif isinstance(stmt, A.SwitchStmt):
            selector = self._int_value(stmt.value)
            matched = False
            try:
                for key, body in stmt.cases:
                    if not matched and key is not None and key == selector:
                        matched = True
                    if not matched:
                        continue
                    for inner in body:
                        self._exec(inner, frame)
                if not matched:
                    for key, body in stmt.cases:
                        if not matched and key is None:
                            matched = True
                        if not matched:
                            continue
                        for inner in body:
                            self._exec(inner, frame)
            except _Break:
                pass
        elif isinstance(stmt, A.BreakStmt):
            raise _Break()
        elif isinstance(stmt, A.ContinueStmt):
            raise _Continue()
        elif isinstance(stmt, A.ReturnStmt):
            value = self.eval(stmt.value) if stmt.value is not None else None
            raise _Return(value)
        else:  # pragma: no cover
            raise MiniCRuntimeError(f"unknown statement {type(stmt).__name__}")

    # ==================================================================
    # expressions
    # ==================================================================
    def _truthy(self, expr: A.Expr) -> bool:
        return self.ops.truthy(self.eval(expr))

    def _int_value(self, expr: A.Expr) -> int:
        return int(self.ops.load(self.eval(expr)))

    def eval(self, expr: A.Expr) -> DuelValue:
        self._step(expr.line)
        method = getattr(self, "_eval_" + type(expr).__name__, None)
        if method is None:  # pragma: no cover
            raise MiniCRuntimeError(f"unknown expression {type(expr).__name__}")
        return method(expr)

    def _eval_IntLit(self, expr: A.IntLit) -> DuelValue:
        from repro.ctype.types import LONG, UINT, ULONG
        if expr.long_ and expr.unsigned:
            ctype: CType = ULONG
        elif expr.long_ or expr.value > 0x7FFFFFFF:
            ctype = LONG
        elif expr.unsigned:
            ctype = UINT
        else:
            ctype = INT
        return rvalue(ctype, expr.value, _SYM)

    def _eval_FloatLit(self, expr: A.FloatLit) -> DuelValue:
        from repro.ctype.types import DOUBLE
        return rvalue(DOUBLE, expr.value, _SYM)

    def _eval_CharLit(self, expr: A.CharLit) -> DuelValue:
        return rvalue(CHAR, expr.value, _SYM)

    def _eval_StrLit(self, expr: A.StrLit) -> DuelValue:
        address = self.program.intern_string(expr.value)
        return rvalue(PointerType(CHAR), address, _SYM)

    def _eval_Ident(self, expr: A.Ident) -> DuelValue:
        symbol = self.program.lookup(expr.name)
        if symbol is not None:
            if symbol.ctype.is_function:
                return DuelValue(ctype=symbol.ctype, sym=_SYM,
                                 value=symbol.address, func_name=symbol.name)
            return lvalue(symbol.ctype, symbol.address, _SYM)
        constant = self.program.types.enum_constants.get(expr.name)
        if constant is not None:
            value, ctype = constant
            return rvalue(ctype, value, _SYM)
        raise MiniCRuntimeError(f"undefined identifier {expr.name!r} "
                                f"(line {expr.line})")

    def _eval_UnaryExpr(self, expr: A.UnaryExpr) -> DuelValue:
        operand = self.eval(expr.operand)
        if expr.op == "-":
            return self.apply.negate(operand, _SYM)
        if expr.op == "+":
            return self.apply.plus(operand, _SYM)
        if expr.op == "!":
            return self.apply.lognot(operand, _SYM)
        if expr.op == "~":
            return self.apply.bitnot(operand, _SYM)
        if expr.op == "*":
            return self.apply.deref(operand, _SYM)
        if expr.op == "&":
            return self.apply.addressof(operand, _SYM)
        raise MiniCRuntimeError(f"unknown unary {expr.op!r}")

    def _eval_IncDecExpr(self, expr: A.IncDecExpr) -> DuelValue:
        operand = self.eval(expr.operand)
        return self.apply.incdec(expr.op, operand, expr.postfix, _SYM)

    def _eval_BinExpr(self, expr: A.BinExpr) -> DuelValue:
        left = self.eval(expr.left)
        right = self.eval(expr.right)
        return self.apply.binary(expr.op, left, right, _SYM)

    def _eval_LogicalExpr(self, expr: A.LogicalExpr) -> DuelValue:
        left = self._truthy(expr.left)
        if expr.op == "&&":
            result = left and self._truthy(expr.right)
        else:
            result = left or self._truthy(expr.right)
        return rvalue(INT, int(result), _SYM)

    def _eval_CondExpr(self, expr: A.CondExpr) -> DuelValue:
        if self._truthy(expr.cond):
            return self.eval(expr.then)
        return self.eval(expr.els)

    def _eval_AssignExpr(self, expr: A.AssignExpr) -> DuelValue:
        target = self.eval(expr.target)
        value = self.eval(expr.value)
        if expr.op == "=":
            return self.apply.assign(target, value, _SYM)
        return self.apply.compound_assign(expr.op[:-1], target, value, _SYM)

    def _eval_CommaExpr(self, expr: A.CommaExpr) -> DuelValue:
        self.eval(expr.left)
        return self.eval(expr.right)

    def _eval_IndexExpr(self, expr: A.IndexExpr) -> DuelValue:
        base = self.eval(expr.base)
        index = self.eval(expr.index)
        return self.apply.index(base, index, _SYM)

    def _eval_FieldExpr(self, expr: A.FieldExpr) -> DuelValue:
        base = self.eval(expr.base)
        return self.apply.field(base, expr.name, expr.arrow, _SYM)

    def _eval_CallExpr(self, expr: A.CallExpr) -> DuelValue:
        func = self.eval(expr.func)
        ftype = func.ctype.strip_typedefs()
        if isinstance(ftype, PointerType) and ftype.target.is_function:
            ftype = ftype.target.strip_typedefs()
        if not isinstance(ftype, FunctionType):
            raise MiniCRuntimeError("called object is not a function "
                                    f"(line {expr.line})")
        raw_args = []
        for position, arg in enumerate(expr.args):
            loaded = self.ops.load_value(self.eval(arg))
            if position < len(ftype.params):
                raw_args.append(convert_value(
                    loaded.value, loaded.ctype, ftype.params[position]))
            else:
                raw_args.append(loaded.value)
        if func.func_name is not None:
            result = self.program.call(func.func_name, raw_args)
        else:
            address = int(self.ops.load(func))
            result = self.program.call(address, raw_args)
        if ftype.result.is_void:
            return rvalue(ftype.result, None, _SYM)
        return rvalue(ftype.result, result, _SYM)

    def _eval_CastExpr(self, expr: A.CastExpr) -> DuelValue:
        operand = self.eval(expr.operand)
        return self.apply.cast(expr.ctype, operand, _SYM)

    def _eval_SizeofExpr(self, expr: A.SizeofExpr) -> DuelValue:
        if expr.ctype is not None:
            return rvalue(ULONG, expr.ctype.size, _SYM)
        operand = self.eval(expr.operand)
        return rvalue(ULONG, operand.ctype.size, _SYM)
