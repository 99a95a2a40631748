"""Unit tests for the mini-C interpreter: real programs executing in
the simulated inferior."""

import pytest

from repro.ctype.types import INT
from repro.minic import run_program
from repro.minic.errors import MiniCRuntimeError
from repro.target.stdlib import stdout_text


def run(source, argv=None):
    return run_program(source, argv=argv)


def out(interp):
    return stdout_text(interp.program)


class TestBasics:
    def test_return_value(self):
        interp = run("int main(void) { return 6 * 7; }")
        assert interp.exit_status == 42

    def test_globals_initialised(self):
        interp = run("int x = 5; int main(void) { return x; }")
        assert interp.exit_status == 5

    def test_global_array_init(self):
        interp = run("int a[4] = {1, 2, 3};"
                     "int main(void) { return a[0]+a[1]+a[2]+a[3]; }")
        assert interp.exit_status == 6  # trailing element zeroed

    def test_struct_initializer(self):
        interp = run("struct p {int x; int y;} pt = {3, 4};"
                     "int main(void) { return pt.x * 10 + pt.y; }")
        assert interp.exit_status == 34

    def test_string_global(self):
        interp = run('char msg[] = "hey";'
                     "int main(void) { return msg[1]; }")
        assert interp.exit_status == ord("e")

    def test_printf(self):
        interp = run('int main(void) { printf("v=%d\\n", 3); return 0; }')
        assert out(interp) == "v=3\n"


class TestControlFlow:
    def test_if_else(self):
        interp = run("int main(void) { int x = 3;"
                     " if (x > 2) return 1; else return 2; }")
        assert interp.exit_status == 1

    def test_while_sum(self):
        interp = run("int main(void) { int i = 0, s = 0;"
                     " while (i < 5) { s += i; i++; } return s; }")
        assert interp.exit_status == 10

    def test_for_loop(self):
        interp = run("int main(void) { int s = 0;"
                     " for (int i = 1; i <= 4; i++) s = s + i;"
                     " return s; }")
        assert interp.exit_status == 10

    def test_do_while(self):
        interp = run("int main(void) { int n = 0;"
                     " do { n++; } while (n < 3); return n; }")
        assert interp.exit_status == 3

    def test_break_continue(self):
        interp = run("int main(void) { int s = 0;"
                     " for (int i = 0; i < 10; i++) {"
                     "   if (i == 5) break;"
                     "   if (i % 2) continue;"
                     "   s += i; } return s; }")
        assert interp.exit_status == 6  # 0 + 2 + 4

    def test_switch_fallthrough_and_default(self):
        source = ("int classify(int x) { int r = 0; switch (x) {"
                  " case 1: r += 1;"
                  " case 2: r += 2; break;"
                  " default: r = 99; } return r; }"
                  "int main(void) { return classify(%d); }")
        assert run(source % 1).exit_status == 3   # falls through 1 -> 2
        assert run(source % 2).exit_status == 2
        assert run(source % 7).exit_status == 99

    def test_ternary_and_logical(self):
        interp = run("int main(void) { int a = 0;"
                     " return (a || 3) ? 10 : 20; }")
        assert interp.exit_status == 10

    def test_logical_short_circuit(self):
        interp = run("int hit = 0;"
                     "int boom(void) { hit = 1; return 1; }"
                     "int main(void) { 0 && boom(); return hit; }")
        assert interp.exit_status == 0


class TestFunctions:
    def test_recursion(self):
        interp = run("int fib(int n) { return n < 2 ? n"
                     " : fib(n-1) + fib(n-2); }"
                     "int main(void) { return fib(10); }")
        assert interp.exit_status == 55

    def test_mutual_recursion(self):
        interp = run("int odd(int n);"
                     "int even(int n) { return n == 0 ? 1 : odd(n-1); }"
                     "int odd(int n) { return n == 0 ? 0 : even(n-1); }"
                     "int main(void) { return even(10); }")
        assert interp.exit_status == 1

    def test_locals_are_per_frame(self):
        interp = run("int depth(int n) { int local = n;"
                     " if (n > 0) depth(n - 1); return local; }"
                     "int main(void) { return depth(5); }")
        assert interp.exit_status == 5

    def test_pointer_out_parameter(self):
        interp = run("void set(int *p, int v) { *p = v; }"
                     "int main(void) { int x = 0; set(&x, 9); return x; }")
        assert interp.exit_status == 9

    def test_call_loaded_function_directly(self):
        interp = run("int triple(int x) { return 3 * x; }")
        assert interp.call("triple", 14) == 42


class TestPointersAndHeap:
    def test_malloc_linked_list(self):
        interp = run(r"""
            struct node { int v; struct node *next; };
            struct node *head;
            int main(void) {
                int i;
                struct node *n;
                for (i = 3; i > 0; i--) {
                    n = (struct node *) malloc(sizeof(struct node));
                    n->v = i * 10;
                    n->next = head;
                    head = n;
                }
                return head->v + head->next->v + head->next->next->v;
            }
        """)
        assert interp.exit_status == 60

    def test_pointer_arithmetic_walk(self):
        interp = run("int a[5] = {1, 2, 3, 4, 5};"
                     "int main(void) { int *p = a; int s = 0;"
                     " while (p < a + 5) { s += *p; p++; } return s; }")
        assert interp.exit_status == 15

    def test_array_of_strings(self):
        interp = run('char *names[2];'
                     'int main(void) { names[0] = "zero"; names[1] = "one";'
                     ' return names[1][0]; }')
        assert interp.exit_status == ord("o")

    def test_struct_member_assignment(self):
        interp = run("struct pt {int x; int y;} p;"
                     "int main(void) { p.x = 2; p.y = p.x * 5;"
                     " return p.y; }")
        assert interp.exit_status == 10

    def test_sizeof(self):
        interp = run("struct s {char c; long l;};"
                     "int main(void) { return sizeof(struct s); }")
        assert interp.exit_status == 16

    def test_enum_values(self):
        interp = run("enum e {A, B = 5, C};"
                     "int main(void) { return A + B + C; }")
        assert interp.exit_status == 11


class TestArgvAndErrors:
    def test_argv(self):
        interp = run("int main(int argc, char **argv) { return argc; }",
                     argv=["prog", "a", "b"])
        assert interp.exit_status == 3

    def test_undefined_identifier(self):
        with pytest.raises(MiniCRuntimeError):
            run("int main(void) { return nope; }")

    def test_step_limit_stops_infinite_loop(self):
        from repro.minic.runner import load_program
        interp = load_program("int main(void) { while (1) ; return 0; }")
        interp.max_steps = 10_000
        with pytest.raises(MiniCRuntimeError):
            interp.run_main()

    def test_step_cap_applies_per_top_level_call(self):
        """The cap bounds each top-level target call, not the total over
        the interpreter's lifetime: two calls each under it but together
        over it both succeed, and one call over it still stops."""
        interp = run("int sq(int n) { int k, s = 0; "
                     "for (k = 0; k < n; k++) s += n; return s; } "
                     "int main(void) { return 0; }")
        interp.max_steps = 1_000
        assert interp.call("sq", 60) == 3600
        assert 2 * interp._steps > interp.max_steps
        assert interp.call("sq", 60) == 3600
        with pytest.raises(MiniCRuntimeError, match="exceeded 1000 steps"):
            interp.call("sq", 1000)
        assert interp.call("sq", 60) == 3600

    def test_exit_call(self):
        interp = run("int main(void) { exit(7); return 0; }")
        assert interp.exit_status == 7

    def test_no_main_is_fine_without_call(self):
        interp = run("int helper(void) { return 1; }")
        assert interp.exit_status is None


class TestCallBounds:
    """What stops a call: the step cap, the running query's checkpoint
    (polled every POLL_EVERY statements), and the call-depth bound."""

    LOOP = ("int n; int loop(int k) { int i; "
            "for (i = 0; i < k; i++) n = n + 1; return n; } "
            "int main(void) { return 0; }")

    def test_checkpoint_polled_every_poll_every_statements(self):
        from repro.minic.interp import POLL_EVERY
        interp = run(self.LOOP)
        polls = []
        interp.program.checkpoint = lambda: polls.append(interp._steps)
        interp.call("loop", 5_000)
        assert len(polls) == interp._steps // POLL_EVERY
        assert polls == [POLL_EVERY * (i + 1) for i in range(len(polls))]

    def test_checkpoint_stop_unwinds_the_call(self):
        class Stop(Exception):
            pass

        def stop():
            raise Stop()
        interp = run(self.LOOP)
        interp.program.checkpoint = stop
        with pytest.raises(Stop):
            interp.call("loop", 5_000)
        assert interp.program.stack.depth == 0
        interp.program.checkpoint = None
        assert interp.call("loop", 10) > 0

    def test_runaway_recursion_hits_the_depth_bound(self):
        from repro.minic.interp import MAX_CALL_DEPTH
        interp = run("int f(int n) { return f(n + 1); } "
                     "int main(void) { return 0; }")
        with pytest.raises(MiniCRuntimeError,
                           match=f"call depth exceeded {MAX_CALL_DEPTH} "
                                 r"\(calling f\)"):
            interp.call("f", 0)
        assert interp.program.stack.depth == 0
        assert interp._depth == 0

    def test_recursion_within_the_bound_runs(self):
        from repro.minic.interp import MAX_CALL_DEPTH
        interp = run("int d(int n) { return n == 0 ? 0 : 1 + d(n - 1); } "
                     "int main(void) { return 0; }")
        assert interp.call("d", MAX_CALL_DEPTH - 1) == MAX_CALL_DEPTH - 1


class TestStateVisibleToDebugger:
    def test_globals_land_in_data_segment(self):
        interp = run("int marker = 77; int main(void) { return 0; }")
        sym = interp.program.lookup("marker")
        assert interp.program.read_value(sym.address, INT) == 77

    def test_heap_structures_remain_after_main(self):
        interp = run(r"""
            struct node { int v; struct node *next; };
            struct node *head;
            int main(void) {
                head = (struct node *) malloc(sizeof(struct node));
                head->v = 123;
                return 0;
            }
        """)
        from repro import DuelSession, SimulatorBackend
        duel = DuelSession(SimulatorBackend(interp.program))
        assert duel.eval_values("head->v") == [123]


class TestFunctionPointers:
    def test_call_through_pointer(self):
        interp = run("int twice(int x) { return 2 * x; }"
                     "int (*fp)(int);"
                     "int main(void) { fp = &twice; return fp(21); }")
        assert interp.exit_status == 42

    def test_function_name_decays(self):
        interp = run("int inc(int x) { return x + 1; }"
                     "int (*fp)(int);"
                     "int main(void) { fp = inc; return fp(6); }")
        assert interp.exit_status == 7

    def test_dispatch_table(self):
        interp = run(r"""
            int add(int a, int b) { return a + b; }
            int sub(int a, int b) { return a - b; }
            int (*ops[2])(int, int);
            int main(void) {
                ops[0] = add;
                ops[1] = sub;
                return ops[0](10, 4) * 100 + ops[1](10, 4);
            }
        """)
        assert interp.exit_status == 1406

    def test_pointer_to_stdlib_function(self):
        interp = run("unsigned long (*len)(char *);"
                     "int main(void) { len = strlen;"
                     ' return len("seven!!");' " }")
        assert interp.exit_status == 7
