"""Tests for counting-based view maintenance (nonrecursive programs)."""

import pytest

from hypothesis import given, settings, strategies as st

from repro.errors import EvaluationError, SchemaError
from repro.parser import parse_program
from repro.relational.instance import Database
from repro.semantics.counting import CountingView, is_recursive
from repro.programs.tc import tc_program

TWO_HOP = parse_program(
    """
    hop2(x, z) :- G(x, y), G(y, z).
    triangle(x) :- G(x, y), G(y, z), G(z, x).
    """
)

LAYERED = parse_program(
    """
    pair(x, z) :- A(x, y), B(y, z).
    witness(x) :- pair(x, z), C(z).
    """
)


class TestRecursionGuard:
    def test_tc_rejected(self):
        assert is_recursive(tc_program())
        with pytest.raises(EvaluationError):
            CountingView(tc_program(), Database())

    def test_nonrecursive_accepted(self):
        assert not is_recursive(TWO_HOP)
        CountingView(TWO_HOP, Database({"G": [("a", "b")]}))


class TestCounts:
    def test_initial_counts(self):
        db = Database({"G": [("a", "b"), ("b", "c"), ("a", "d"), ("d", "c")]})
        view = CountingView(TWO_HOP, db)
        # a→c has two derivations (via b and via d).
        assert view.count("hop2", ("a", "c")) == 2

    def test_delete_one_support_keeps_fact(self):
        db = Database({"G": [("a", "b"), ("b", "c"), ("a", "d"), ("d", "c")]})
        view = CountingView(TWO_HOP, db)
        changed = view.delete([("G", ("a", "b"))])
        assert ("hop2", ("a", "c")) not in changed  # still derivable via d
        assert view.count("hop2", ("a", "c")) == 1
        assert ("a", "c") in view.answer("hop2")

    def test_delete_last_support_drops_fact(self):
        db = Database({"G": [("a", "b"), ("b", "c")]})
        view = CountingView(TWO_HOP, db)
        changed = view.delete([("G", ("b", "c"))])
        assert ("hop2", ("a", "c")) in changed
        assert view.count("hop2", ("a", "c")) == 0
        assert ("a", "c") not in view.answer("hop2")

    def test_insert_adds_derivations(self):
        db = Database({"G": [("a", "b")]})
        view = CountingView(TWO_HOP, db)
        changed = view.insert([("G", ("b", "c"))])
        assert ("hop2", ("a", "c")) in changed
        assert view.count("hop2", ("a", "c")) == 1

    def test_insert_bumps_existing_count(self):
        db = Database({"G": [("a", "b"), ("b", "c")]})
        view = CountingView(TWO_HOP, db)
        view.insert([("G", ("a", "d")), ("G", ("d", "c"))])
        assert view.count("hop2", ("a", "c")) == 2


class TestCascades:
    def test_two_level_cascade(self):
        db = Database(
            {"A": [("x", "m")], "B": [("m", "z")], "C": [("z",)]}
        )
        view = CountingView(LAYERED, db)
        assert view.answer("witness") == frozenset({("x",)})
        changed = view.delete([("B", ("m", "z"))])
        assert ("pair", ("x", "z")) in changed
        assert ("witness", ("x",)) in changed
        assert view.answer("witness") == frozenset()

    def test_cascade_with_alternative_support(self):
        db = Database(
            {
                "A": [("x", "m"), ("x", "n")],
                "B": [("m", "z"), ("n", "z")],
                "C": [("z",)],
            }
        )
        view = CountingView(LAYERED, db)
        assert view.count("pair", ("x", "z")) == 2
        view.delete([("B", ("m", "z"))])
        assert view.answer("witness") == frozenset({("x",)})  # still supported
        view.delete([("B", ("n", "z"))])
        assert view.answer("witness") == frozenset()


class TestGuards:
    def test_idb_update_rejected(self):
        view = CountingView(TWO_HOP, Database({"G": [("a", "b")]}))
        with pytest.raises(SchemaError):
            view.insert([("hop2", ("a", "b"))])

    def test_noop_updates(self):
        view = CountingView(TWO_HOP, Database({"G": [("a", "b")]}))
        assert view.insert([("G", ("a", "b"))]) == frozenset()
        assert view.delete([("G", ("zz", "zz"))]) == frozenset()


NODES = [f"n{i}" for i in range(4)]


@settings(max_examples=30, deadline=None)
@given(
    start=st.lists(
        st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)),
        max_size=6,
        unique=True,
    ),
    updates=st.lists(
        st.tuples(
            st.booleans(),
            st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)),
        ),
        max_size=6,
    ),
)
def test_counting_view_always_equals_scratch(start, updates):
    view = CountingView(TWO_HOP, Database({"G": start}))
    for is_insert, edge in updates:
        if is_insert:
            view.insert([("G", edge)])
        else:
            view.delete([("G", edge)])
        view.database.check_invariants()
    assert view.consistent_with_scratch()
