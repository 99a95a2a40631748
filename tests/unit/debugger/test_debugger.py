"""Unit tests for DUEL-driven breakpoints, watchpoints, assertions."""

import pytest

from repro.debugger import Assertion, Breakpoint, Debugger, StopEvent, Watchpoint
from repro.debugger.debugger import StopKind, describe

COUNTER = r"""
int total = 0;
int step(int k) { total = total + k; return total; }
int main(void) {
    int i;
    for (i = 1; i <= 5; i++)
        step(i);
    return total;
}
"""

LIST_BUILDER = r"""
struct node { int v; struct node *next; } *head;
int n = 0;
void push(int v) {
    struct node *p = (struct node *) malloc(sizeof(struct node));
    p->v = v; p->next = head; head = p;
    n++;
}
int main(void) {
    push(3); push(-7); push(9);
    return n;
}
"""


class TestBreakpoints:
    def test_unconditional_hit_per_call(self):
        dbg = Debugger(COUNTER)
        bp = dbg.break_at("step")
        assert dbg.run() == 15
        assert bp.hits == 5
        assert all(s.kind is StopKind.BREAKPOINT for s in dbg.stops)

    def test_conditional_breakpoint(self):
        dbg = Debugger(COUNTER)
        bp = dbg.break_at("step", condition="total >= 6")
        dbg.run()
        # total >= 6 on entry only for the calls where total is 6, 10
        # (entries happen with total = 0,1,3,6,10).
        assert bp.hits == 2

    def test_generator_condition(self):
        dbg = Debugger(LIST_BUILDER)
        bp = dbg.break_at("push", condition="head-->next->v <? 0")
        dbg.run()
        # Fires once the list contains a negative value (last push).
        assert bp.hits == 1

    def test_handler_inspects_live_frames(self):
        seen = []

        def on_stop(event: StopEvent, session):
            seen.append(session.eval_values("k"))

        dbg = Debugger(COUNTER, on_stop=on_stop)
        dbg.break_at("step")
        dbg.run()
        assert seen == [[1], [2], [3], [4], [5]]

    def test_abort_from_handler(self):
        def on_stop(event, session):
            return "abort"

        dbg = Debugger(COUNTER, on_stop=on_stop)
        dbg.break_at("step")
        status = dbg.run()
        assert status is None
        assert len(dbg.stops) == 1

    def test_disable_and_delete(self):
        dbg = Debugger(COUNTER)
        bp = dbg.break_at("step")
        bp.enabled = False
        dbg.run()
        assert bp.hits == 0
        dbg.delete(bp)
        assert dbg.breakpoints == []
        with pytest.raises(ValueError):
            dbg.delete(bp)


class TestWatchpoints:
    def test_fires_on_each_change(self):
        dbg = Debugger(COUNTER)
        wp = dbg.watch("total")
        dbg.run()
        # total changes 5 times (1, 3, 6, 10, 15).
        assert wp.hits == 5
        changes = [s.detail for s in dbg.stops
                   if s.kind is StopKind.WATCHPOINT]
        assert changes[0] == ((0,), (1,))
        assert changes[-1] == ((10,), (15,))

    def test_watch_generator_expression(self):
        dbg = Debugger(LIST_BUILDER)
        wp = dbg.watch("#/(head-->next)")
        dbg.run()
        assert wp.hits == 3  # list length 1, 2, 3

    def test_watch_survives_invalid_intermediate_state(self):
        dbg = Debugger(LIST_BUILDER)
        dbg.watch("head->v")
        status = dbg.run()  # must not crash while head is NULL
        assert status == 3

    def test_invalid_expression_rejected_eagerly(self):
        dbg = Debugger(COUNTER)
        from repro.core.errors import DuelSyntaxError
        with pytest.raises(DuelSyntaxError):
            dbg.watch("total +")

    def test_check_interval_samples(self):
        every = Debugger(COUNTER, check_interval=1)
        every.watch("total")
        every.run()
        sampled = Debugger(COUNTER, check_interval=50)
        wp = sampled.watch("total")
        sampled.run()
        assert sampled.condition_evals < every.condition_evals


class TestAssertions:
    def test_holding_assertion_never_fires(self):
        dbg = Debugger(COUNTER)
        asrt = dbg.assert_always("total >= 0")
        dbg.run()
        assert asrt.violations == 0

    def test_violated_assertion_reports(self):
        dbg = Debugger(LIST_BUILDER)
        # The paper's canonical assertion shape: all values positive.
        asrt = dbg.assert_always("head-->next->v > 0")
        dbg.run()
        assert asrt.violations > 0
        first = next(s for s in dbg.stops
                     if s.kind is StopKind.ASSERTION)
        assert first.detail == [0]  # the failing comparison value

    def test_empty_policy(self):
        dbg = Debugger(COUNTER)
        strict = dbg.assert_always("total >? 1000", allow_empty=False)
        dbg.run()
        assert strict.violations > 0

    def test_describe(self):
        assert describe(Breakpoint("f", "x > 0")) == "break f if x > 0"
        assert describe(Watchpoint("x")) == "watch x"
        assert describe(Assertion("x > 0")) == "assert x > 0"


class TestHistory:
    def test_checks_stay_out_of_the_query_history(self):
        dbg = Debugger(COUNTER)
        dbg.watch("total")
        dbg.assert_always("total >= 0")
        dbg.break_at("step", condition="total < 100")
        dbg.run()
        assert dbg.condition_evals > 10
        assert dbg.session.history == []
        assert dbg.duel("total") == ["total = 15"]
        assert dbg.session.history == ["total"]


class TestInstrumentationCost:
    def test_condition_evals_counted(self):
        dbg = Debugger(COUNTER)
        dbg.watch("total")
        dbg.run()
        assert dbg.condition_evals > 10

    def test_uninstrumented_run_is_free(self):
        dbg = Debugger(COUNTER)
        dbg.run()
        assert dbg.condition_evals == 0
        assert dbg.stops == []

    def test_call_entry_point(self):
        dbg = Debugger(COUNTER)
        bp = dbg.break_at("step")
        assert dbg.call("step", 7) == 7
        assert bp.hits == 1
