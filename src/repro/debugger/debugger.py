"""A breakpoint/watchpoint/assertion debugger driven by DUEL expressions.

Execution model: the mini-C interpreter emits trace events
(call/stmt/return); the :class:`Debugger` evaluates DUEL conditions at
those points.  When something fires, a :class:`StopEvent` is recorded
and the optional ``on_stop`` handler runs *at the stop point* — the
program's frames are live, so the handler can interrogate any state
through the attached :class:`~repro.core.session.DuelSession` (this is
what "stopped at a breakpoint" means here).  The handler may return
``"abort"`` to terminate the run.

Truth conventions follow DUEL's generator semantics:

* a breakpoint *condition* fires when the expression produces **any**
  non-zero value (so ``x[..100] >? 1000`` fires as soon as some element
  exceeds 1000);
* an *assertion* holds while **every** produced value is non-zero and
  it produces at least one value... unless declared ``allow_empty``
  (the paper's "x[0] through x[n] are positive" is ``x[..n] > 0``);
* a *watchpoint* fires when the produced value list changes between
  checkpoints.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.core.errors import DuelError
from repro.core.session import DuelSession
from repro.minic.runner import load_program
from repro.target.interface import SimulatorBackend
from repro.target.stdlib import TargetExit


class StopKind(enum.Enum):
    BREAKPOINT = "breakpoint"
    WATCHPOINT = "watchpoint"
    ASSERTION = "assertion"


@dataclass
class StopEvent:
    """One debugger stop: what fired, where, and what was observed."""

    kind: StopKind
    spec: object  # the Breakpoint/Watchpoint/Assertion that fired
    function: str
    line: int
    #: Watchpoints: (old_values, new_values); assertions: offending
    #: values; breakpoints: the condition's values (if conditioned).
    detail: object = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{self.kind.value} {describe(self.spec)} "
                f"in {self.function} at line {self.line}")


@dataclass
class Breakpoint:
    """Stop when ``function`` is entered (and ``condition`` fires)."""

    function: str
    condition: Optional[str] = None
    enabled: bool = True
    hits: int = 0
    id: int = 0


@dataclass
class Watchpoint:
    """Stop when the DUEL expression's value sequence changes."""

    expression: str
    enabled: bool = True
    hits: int = 0
    id: int = 0
    last: Optional[tuple] = None


@dataclass
class Assertion:
    """A DUEL invariant checked at every statement.

    Violated when any produced value is zero, or (unless
    ``allow_empty``) when the expression produces nothing.
    """

    expression: str
    allow_empty: bool = True
    enabled: bool = True
    violations: int = 0
    id: int = 0


def describe(spec) -> str:
    if isinstance(spec, Breakpoint):
        cond = f" if {spec.condition}" if spec.condition else ""
        return f"break {spec.function}{cond}"
    if isinstance(spec, Watchpoint):
        return f"watch {spec.expression}"
    if isinstance(spec, Assertion):
        return f"assert {spec.expression}"
    return repr(spec)


class Debugger:
    """Runs a mini-C program under DUEL-conditioned instrumentation."""

    def __init__(self, source: str,
                 on_stop: Optional[Callable] = None,
                 check_interval: int = 1):
        self.interp = load_program(source)
        self.program = self.interp.program
        self.session = DuelSession(SimulatorBackend(self.program))
        self.on_stop = on_stop
        #: Evaluate watchpoints/assertions every N statements (1 = the
        #: paper-faithful, expensive mode; raise to sample).
        self.check_interval = max(1, check_interval)
        self.stops: list[StopEvent] = []
        self.breakpoints: list[Breakpoint] = []
        self.watchpoints: list[Watchpoint] = []
        self.assertions: list[Assertion] = []
        #: Number of DUEL expression evaluations performed by hooks
        #: (the overhead the paper warns about; benchmarked in P6).
        self.condition_evals = 0
        self._ids = itertools.count(1)
        self._stmt_counter = 0
        self._aborted = False
        self.interp.trace = self._trace

    # -- configuration ---------------------------------------------------
    def break_at(self, function: str,
                 condition: Optional[str] = None) -> Breakpoint:
        bp = Breakpoint(function, condition, id=next(self._ids))
        self.breakpoints.append(bp)
        return bp

    def watch(self, expression: str) -> Watchpoint:
        # Validate eagerly; every later check reuses this parse.
        self.session.prepare(expression)
        wp = Watchpoint(expression, id=next(self._ids))
        self.watchpoints.append(wp)
        return wp

    def assert_always(self, expression: str,
                      allow_empty: bool = True) -> Assertion:
        self.session.prepare(expression)
        asrt = Assertion(expression, allow_empty, id=next(self._ids))
        self.assertions.append(asrt)
        return asrt

    def delete(self, spec) -> None:
        for pool in (self.breakpoints, self.watchpoints, self.assertions):
            if spec in pool:
                pool.remove(spec)
                return
        raise ValueError(f"not installed: {describe(spec)}")

    # -- running -----------------------------------------------------------
    def run(self, argv: Optional[Sequence[str]] = None):
        """Run main() under instrumentation; returns its exit status."""
        self._aborted = False
        for wp in self.watchpoints:
            wp.last = self._safe_values(wp.expression)
        try:
            status = self.interp.run_main(argv)
        except TargetExit as stop:
            status = stop.status
        except _Abort:
            status = None
        return status

    def call(self, name: str, *args):
        """Call one target function under instrumentation."""
        self._aborted = False
        try:
            return self.interp.call(name, *args)
        except _Abort:
            return None

    def duel(self, text: str) -> list[str]:
        """One recovering ``duel`` command against the stopped program.

        Returns the printed lines.  Uses the session's robust drive: a
        mid-query ``DuelError`` still returns the partial results
        (followed by the error report), side-effecting queries roll the
        target back on failure, and the session remains usable.
        """
        import io
        buffer = io.StringIO()
        self.session.duel(text, out=buffer)
        return buffer.getvalue().splitlines()

    # -- checkpoints ---------------------------------------------------------
    def checkpoint(self):
        """Capture the target's state (rewind with :meth:`restore`)."""
        from repro.target import snapshot
        return snapshot.take(self.program)

    def restore(self, checkpoint) -> None:
        """Rewind the target to a previous :meth:`checkpoint`."""
        from repro.target import snapshot
        snapshot.restore(self.program, checkpoint)
        for wp in self.watchpoints:
            wp.last = self._safe_values(wp.expression)

    # -- trace hook -----------------------------------------------------------
    def _trace(self, event: str, payload) -> None:
        if self._aborted:
            return
        if event == "call":
            self._on_call(payload)
        elif event == "stmt":
            self._stmt_counter += 1
            if self._stmt_counter % self.check_interval == 0:
                self._on_stmt(payload)

    def _on_call(self, func) -> None:
        for bp in self.breakpoints:
            if not bp.enabled or bp.function != func.name:
                continue
            detail = None
            if bp.condition is not None:
                values = self._safe_values(bp.condition)
                if not any(values):
                    continue
                detail = values
            bp.hits += 1
            self._stop(StopEvent(StopKind.BREAKPOINT, bp, func.name,
                                 func.line, detail))

    def _on_stmt(self, stmt) -> None:
        function = self._current_function()
        for wp in self.watchpoints:
            if not wp.enabled:
                continue
            now = self._safe_values(wp.expression)
            if now != wp.last:
                old, wp.last = wp.last, now
                wp.hits += 1
                self._stop(StopEvent(StopKind.WATCHPOINT, wp, function,
                                     stmt.line, (old, now)))
            else:
                wp.last = now
        for asrt in self.assertions:
            if not asrt.enabled:
                continue
            values = self._safe_values(asrt.expression)
            empty_violation = not values and not asrt.allow_empty
            if empty_violation or any(v == 0 for v in values):
                asrt.violations += 1
                bad = [v for v in values if v == 0]
                self._stop(StopEvent(StopKind.ASSERTION, asrt, function,
                                     stmt.line, bad))

    def _stop(self, event: StopEvent) -> None:
        self.stops.append(event)
        if self.on_stop is not None:
            verdict = self.on_stop(event, self.session)
            if verdict == "abort":
                self._aborted = True
                raise _Abort()

    # -- helpers ----------------------------------------------------------------
    def _safe_values(self, expression: str) -> tuple:
        """Evaluate a DUEL expression, treating errors as 'no values'.

        A watch on ``head->next->v`` must not crash the run while the
        list is still being linked up; it simply produces nothing until
        the pointers are valid.
        """
        self.condition_evals += 1
        try:
            return tuple(self.session.eval_values(expression, record=False))
        except DuelError:
            return ()

    def _current_function(self) -> str:
        frame = self.program.stack.innermost
        return frame.function if frame is not None else "<global>"


class _Abort(Exception):
    """Internal: unwinds the interpreter when a handler says abort."""
