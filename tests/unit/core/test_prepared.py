"""Prepared queries: each statement shape is compiled once per session.

``DuelSession.prepare`` keeps the AST, the side-effect and
mentions-state facts and the fingerprint of the most recently used
texts, and the compiled template of the most recently used statement
shapes; every query path (``ievents``, ``ieval``, saved queries) goes
through it, and ``DuelSession.compile`` runs only on a new shape.
"""

import sys
import threading

import pytest

from repro import DuelSession, SimulatorBackend
from repro.core.errors import DuelSyntaxError
from repro.core.session import PREPARED_MAX
from repro.target import builder, snapshot


def count_compiles(session) -> list:
    """Record every text ``session`` compiles from now on."""
    compiled = []
    original = session.compile

    def compile(text, *stream):
        compiled.append(text)
        return original(text, *stream)

    session.compile = compile
    return compiled


def run(session, text) -> tuple:
    """(output lines, terminal kind, terminal info) of one query."""
    events = list(session.ievents(text))
    kind, info = events[-1]
    return [line for _, line in events[:-1]], kind, info


class TestCompileOnce:
    def test_ievents_compiles_each_distinct_text_once(self, session):
        compiled = count_compiles(session)
        texts = ["x[3]", "x[..4]", "x[3]", "(1..3)+(5,9)", "x[..4]", "x[3]"]
        outputs = [run(session, text)[0] for text in texts]
        assert compiled == ["x[3]", "x[..4]", "(1..3)+(5,9)"]
        assert outputs[0] == outputs[2] == outputs[5] == ["x[3] = 0"]
        assert outputs[3] == ["6 10 7 11 8 12"]

    def test_records_of_one_text_share_the_prepared_entry(self, session):
        first = run(session, "head-->next->value")[2]["record"]
        second = run(session, "head-->next->value")[2]["record"]
        assert first is not second
        assert first.prepared is second.prepared
        assert first.fingerprint is second.fingerprint
        assert first.node is first.prepared.node

    def test_a_hit_still_reports_a_parse_phase(self, session):
        run(session, "x[1]")
        info = run(session, "x[1]")[2]
        assert info["phases"]["parse"] >= 0.0

    def test_ieval_paths_share_the_cache(self, session):
        compiled = count_compiles(session)
        assert session.eval_values("x[2]") == [7]
        assert session.eval_lines("x[2]") == ["x[2] = 7"]
        assert len(session.eval("x[2]")) == 1
        assert run(session, "x[2]")[0] == ["x[2] = 7"]
        assert compiled == ["x[2]"]

    def test_saved_query_compiles_at_save_only(self, session):
        compiled = count_compiles(session)
        session.save_query("pos", "x[..10] >? 10")
        for _ in range(3):
            assert session.run_saved("pos") == ["x[4] = 12", "x[7] = 120"]
        assert compiled == ["x[..10] >? 10"]

    def test_side_effects_still_roll_back_from_a_cached_entry(self, session):
        for _ in range(2):                      # a miss, then a hit
            lines, kind, _ = run(session, "x[0] = 99, *(int *)0")
            assert (lines, kind) == (["x[0]=99 = 99"], "faulted")
            assert run(session, "x[0]")[0] == ["x[0] = 3"]


class TestShapes:
    def test_literals_of_one_shape_compile_once(self, program):
        builder.int_array(program, "x", list(range(100, 120)))
        session = DuelSession(SimulatorBackend(program))
        compiled = count_compiles(session)
        lines = [session.eval_lines(text)
                 for text in ("x[3]", "x[4]", "x[0x10]", "x[010]")]
        assert lines == [["x[3] = 103"], ["x[4] = 104"],
                         ["x[0x10] = 116"], ["x[8] = 108"]]
        assert compiled == ["x[3]"]

    def test_instances_share_the_templates_facts(self, session):
        first = session.prepare("x[..4] >? 2")
        second = session.prepare("x[..4] >? 3")
        assert second is not first and second.node != first.node
        assert second.fingerprint is first.fingerprint
        assert (second.side_effects, second.mentions_state) == \
            (first.side_effects, first.mentions_state)
        # Only the changed literal's ancestors are copied.
        assert second.node.left is first.node.left

    def test_a_long_chain_instantiates_as_it_compiles(self, empty_session):
        # Deep enough that a walk with more than a frame or two a level
        # (a fingerprint, say) overflows the stack, as preparing this
        # text on its own does not.
        terms = ["1"] * 600
        empty_session.prepare(" + ".join(terms))
        terms[0] = terms[-1] = "2"
        node = empty_session.prepare(" + ".join(terms)).node
        assert node.right.value == 2
        while isinstance(node.left, type(node)):
            node = node.left
        assert node.left.value == 2

    def test_a_literal_of_another_kind_is_another_shape(self, session):
        compiled = count_compiles(session)
        assert run(session, "x[..4]@3")[1] == "done"
        _, kind, info = run(session, 'x[..4]@"s"')
        assert kind == "error"
        assert info["error"].startswith(
            "expected constant, name, or (expression) after @")
        assert compiled == ["x[..4]@3", 'x[..4]@"s"']

    def test_a_malformed_literal_raises_the_parsers_error(self, session):
        run(session, "x[3]")
        compiled = count_compiles(session)
        _, kind, info = run(session, "x[09]")
        assert kind == "error"
        assert info["error"].endswith("x[09]\n  ^")
        assert compiled == ["x[09]"]
        assert session.eval_lines("x[07]") == ["x[7] = 120"]
        assert compiled == ["x[09]"]

    def test_a_typedef_bump_compiles_the_next_text_of_a_shape(
            self, empty_session):
        session = empty_session
        compiled = count_compiles(session)
        assert run(session, "(T)(3)")[1] == "faulted"    # a call of T
        assert run(session, "typedef int T;")[1] == "done"
        assert run(session, "(T)(4)")[0] == ["4"]        # now a cast
        assert run(session, "(T)(5)")[0] == ["5"]
        assert compiled == ["(T)(3)", "typedef int T;", "(T)(4)"]

    @pytest.mark.parametrize("first,second", [
        ("(char *)argv[1]", "(char*)argv[1]"),
        ("(char *)argv[1]", "(char  *) argv[2]"),
        ("sizeof(int *) + 1", "sizeof(int*) + 2"),
        ("sizeof(char [3])", "sizeof(char [4])"),
        ("int a[3]; a[0] = 1", "int  a[3]; a[0] = 2"),
        ("int a[3]; a[0] = 1", "int a[4]; a[0] = 1"),
    ])
    def test_source_slices_read_as_written(self, session, first, second):
        assert session.prepare(first).node == session.compile(first)
        assert session.prepare(second).node == session.compile(second)

    def test_a_compile_wrapper_that_drops_the_stream_keeps_no_shape(
            self, session):
        original = session.compile
        compiled = []

        def compile(text, stream=None):
            compiled.append(text)
            return original(text)

        session.compile = compile
        assert session.eval_lines("x[3]") == ["x[3] = 0"]
        assert session.eval_lines("x[4]") == ["x[4] = 12"]
        assert compiled == ["x[3]", "x[4]"]

    def test_an_unchanged_slice_is_instantiated(self, session):
        session.prepare("(char *)argv[1]")
        compiled = count_compiles(session)
        assert session.eval_lines("(char *)argv[ 2 ]") == \
            ['(char *)argv[2] = "file.c"']
        assert compiled == []


class TestInvalidation:
    def test_typedef_turns_a_parenthesised_name_into_a_cast(
            self, empty_session):
        session = empty_session
        _, kind, info = run(session, "(T)3")
        assert kind == "error" and "unexpected '3'" in info["error"]
        assert run(session, "(T)(3)")[1] == "faulted"   # a call of T
        assert run(session, "typedef int T;")[1] == "done"
        assert run(session, "(T)3")[0] == ["3"]
        assert run(session, "(T)(3)")[0] == ["3"]

    def test_target_typedefs_count_too(self, program, empty_session):
        session = empty_session
        before = snapshot.take(program)
        assert run(session, "(U)3")[1] == "error"
        program.declare("typedef long U;")
        assert run(session, "(U)3")[0] == ["3"]
        compiled = count_compiles(session)
        snapshot.restore(program, before)     # the typedef table changes
        run(session, "(U)3")
        snapshot.restore(program, before)     # ...and now it does not
        run(session, "(U)3")
        assert compiled == ["(U)3"]


class TestBound:
    def test_inserting_past_the_bound_evicts_the_least_recently_used(
            self, empty_session):
        session = empty_session
        texts = [f"v{i} + 1" for i in range(PREPARED_MAX + 1)]  # one shape each
        for text in texts[:PREPARED_MAX]:
            session.prepare(text)
        session.prepare(texts[0])            # now the most recent
        compiled = count_compiles(session)
        session.prepare(texts[PREPARED_MAX])  # evicts texts[1]
        session.prepare(texts[0])
        session.prepare(texts[2])
        assert compiled == [texts[PREPARED_MAX]]
        session.prepare(texts[1])
        assert compiled == [texts[PREPARED_MAX], texts[1]]


class TestErrors:
    def test_a_text_that_fails_to_parse_is_not_cached(self, session):
        compiled = count_compiles(session)
        first = run(session, "x[1] +")
        second = run(session, "x[1] +")
        assert compiled == ["x[1] +", "x[1] +"]
        for lines, kind, info in (first, second):
            assert lines == [] and kind == "error"
            assert info["error"] == first[2]["error"]
            assert info["record"].outcome == "rejected"
            assert info["record"].prepared is None
        with pytest.raises(DuelSyntaxError):
            session.prepare("x[1] +")


class TestThreads:
    def test_threads_prepare_past_the_bound(self, session):
        texts = [f"x[{i % 10}] + {i}" for i in range(PREPARED_MAX * 3)]
        failures = []

        def worker(offset):
            try:
                for text in (texts[offset:] + texts[:offset]) * 4:
                    entry = session.prepare(text)
                    assert entry.node.right.value == int(text.split()[-1])
            except Exception as error:          # reported below
                failures.append(error)

        threads = [threading.Thread(target=worker, args=(offset,))
                   for offset in (0, 100, PREPARED_MAX, 600)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert len(session._prepared) == PREPARED_MAX


class TestSyntaxFixes:
    def test_octal_index(self, session):
        assert session.eval_lines("x[010]") == ["x[8] = 5"]

    def test_malformed_literal_is_rejected_and_the_session_answers(
            self, session):
        lines, kind, info = run(session, "08")
        assert (lines, kind) == ([], "error")
        assert info["error"].endswith("08\n^")
        assert info["record"].outcome == "rejected"
        assert run(session, "x[3]")[0] == ["x[3] = 0"]

    def test_bad_escape_is_rejected_at_the_backslash(self, session):
        _, kind, info = run(session, r"'\x'")
        assert kind == "error"
        assert info["error"].endswith("'\\x'\n ^")

    def test_deep_nesting_is_rejected_and_the_session_answers(self, session):
        lines, kind, info = run(session, "(" * 500 + "1" + ")" * 500)
        assert (lines, kind) == ([], "error")
        assert info["error"].startswith("expression nested too deeply")
        assert info["record"].outcome == "rejected"
        assert run(session, "x[3]")[0] == ["x[3] = 0"]
