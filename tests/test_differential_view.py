"""Tests for the unified differential engine.

Covers the per-SCC strategy split (counting vs DRed), the diff-batch
and subscription API, the maintenance-layer correctness fixes
(IDB-named base facts rejected, atomic batches), and the two
correctness spines: seeded randomized insert/delete *streams* checked
against from-scratch evaluation after every operation, and the
50-random-program stream differential.  The streams also check every
relation's indexes against its tuples after each update
(``Database.check_invariants``).
"""

import random

import pytest

from repro.errors import SchemaError
from repro.parser import parse_program
from repro.relational.instance import Database
from repro.semantics.counting import CountingView
from repro.semantics.differential import (
    ApplyResult,
    DiffBatch,
    DifferentialEngine,
    RelationDiff,
)
from repro.semantics.maintenance import MaterializedView
from repro.semantics.seminaive import evaluate_datalog_seminaive
from repro.programs.tc import tc_program, tc_nonlinear_program
from repro.workloads.graphs import chain, graph_database

from tests.test_differential_engines import random_program_and_database

TWO_HOP = parse_program(
    """
    hop2(x, z) :- G(x, y), G(y, z).
    triangle(x) :- G(x, y), G(y, z), G(z, x).
    """
)

MIXED = parse_program(
    """
    T(x, y) :- G(x, y).
    T(x, z) :- T(x, y), G(y, z).
    mutual(x, y) :- T(x, y), T(y, x).
    """
)


def scratch_answers(engine_or_view) -> dict[str, frozenset]:
    """From-scratch evaluation of the view's current base."""
    program = engine_or_view.program
    base = engine_or_view.database.restrict(
        [
            rel
            for rel in engine_or_view.database.relation_names()
            if rel not in program.idb
        ]
    )
    result = evaluate_datalog_seminaive(program, base)
    return {rel: result.answer(rel) for rel in sorted(program.idb)}


def view_answers(engine_or_view) -> dict[str, frozenset]:
    return {
        rel: engine_or_view.answer(rel)
        for rel in sorted(engine_or_view.program.idb)
    }


class TestConstructorGuards:
    """Satellite bugfix: IDB-named base facts must be rejected.

    Before the fix both view classes silently absorbed them and
    ``consistent_with_scratch()`` was ``False`` forever after.
    """

    def test_materialized_view_rejects_idb_base(self):
        base = Database({"G": [("a", "b")], "T": [("z", "z")]})
        with pytest.raises(SchemaError):
            MaterializedView(tc_program(), base)

    def test_counting_view_rejects_idb_base(self):
        base = Database({"G": [("a", "b")], "hop2": [("z", "z")]})
        with pytest.raises(SchemaError):
            CountingView(TWO_HOP, base)

    def test_engine_rejects_idb_base(self):
        with pytest.raises(SchemaError):
            DifferentialEngine(tc_program(), Database({"T": [("z", "z")]}))

    def test_clean_base_still_accepted(self):
        engine = DifferentialEngine(
            tc_program(), Database({"G": [("a", "b")]})
        )
        assert engine.answer("T") == frozenset({("a", "b")})


class TestAtomicBatches:
    """Satellite bugfix: a bad fact anywhere in a batch must leave the
    view untouched (the whole batch validates before any mutation)."""

    def make_view(self):
        return MaterializedView(tc_program(), graph_database(chain(3)))

    def test_mixed_insert_batch_is_rejected_whole(self):
        view = self.make_view()
        before = view_answers(view)
        with pytest.raises(SchemaError):
            view.insert([("G", ("x", "y")), ("T", ("x", "y"))])
        assert view_answers(view) == before
        assert ("x", "y") not in view.database.tuples("G")
        assert view.consistent_with_scratch()

    def test_mixed_delete_batch_is_rejected_whole(self):
        view = self.make_view()
        before = view_answers(view)
        with pytest.raises(SchemaError):
            view.delete([("G", ("n0", "n1")), ("T", ("n0", "n1"))])
        assert view_answers(view) == before
        assert ("n0", "n1") in view.database.tuples("G")
        assert view.consistent_with_scratch()

    def test_arity_mismatch_rejects_whole_batch(self):
        view = self.make_view()
        with pytest.raises(SchemaError):
            view.insert([("G", ("q", "r")), ("G", ("q", "r", "s"))])
        assert ("q", "r") not in view.database.tuples("G")
        assert view.consistent_with_scratch()

    def test_counting_view_batches_are_atomic(self):
        view = CountingView(TWO_HOP, Database({"G": [("a", "b")]}))
        with pytest.raises(SchemaError):
            view.insert([("G", ("b", "c")), ("hop2", ("a", "c"))])
        assert ("b", "c") not in view.database.tuples("G")
        assert view.count("hop2", ("a", "c")) == 0
        assert view.consistent_with_scratch()

    def test_engine_mixed_apply_is_atomic(self):
        engine = DifferentialEngine(tc_program(), graph_database(chain(3)))
        before = view_answers(engine)
        batch = DiffBatch(
            inserts=(("G", ("n2", "n0")),),
            deletes=(("T", ("n0", "n1")),),
        )
        with pytest.raises(SchemaError):
            engine.apply(batch)
        assert view_answers(engine) == before
        assert engine.consistent_with_scratch()


class TestStrategySelection:
    def test_recursive_scc_uses_dred(self):
        engine = DifferentialEngine(tc_program(), graph_database(chain(3)))
        assert engine.strategy_of("T") == "dred"
        assert engine.strategy_of("G") is None

    def test_nonrecursive_sccs_use_counting(self):
        engine = DifferentialEngine(TWO_HOP, Database({"G": [("a", "b")]}))
        assert engine.strategy_of("hop2") == "counting"
        assert engine.strategy_of("triangle") == "counting"

    def test_mixed_program_splits_per_scc(self):
        engine = DifferentialEngine(MIXED, graph_database(chain(3)))
        assert engine.strategy_of("T") == "dred"
        assert engine.strategy_of("mutual") == "counting"
        components = engine.stats.differential["components"]
        assert [c["strategy"] for c in components] == ["dred", "counting"]

    def test_mixed_program_counts_downstream_of_dred(self):
        engine = DifferentialEngine(MIXED, graph_database(chain(3)))
        engine.insert([("G", ("n2", "n0"))])  # close the cycle
        assert engine.counts[("mutual", ("n0", "n1"))] == 1
        assert engine.consistent_with_scratch()
        engine.delete([("G", ("n1", "n2"))])
        assert engine.answer("mutual") == frozenset()
        assert engine.consistent_with_scratch()


class TestDiffBatchAPI:
    def test_empty_batch_is_noop(self):
        engine = DifferentialEngine(tc_program(), graph_database(chain(3)))
        before = view_answers(engine)
        result = engine.apply(DiffBatch())
        assert not result.report
        assert view_answers(engine) == before

    def test_delete_before_insert_within_batch(self):
        engine = DifferentialEngine(tc_program(), graph_database(chain(3)))
        result = engine.apply(
            DiffBatch(
                inserts=(("G", ("n0", "n1")),),
                deletes=(("G", ("n0", "n1")),),
            )
        )
        # Present, deleted, re-inserted: the net change is empty.
        assert not result.report
        assert ("n0", "n1") in engine.answer("G")
        assert engine.consistent_with_scratch()

    def test_signed_triple_form(self):
        engine = DifferentialEngine(tc_program(), graph_database(chain(3)))
        result = engine.apply(
            [("+", "G", ("n2", "n3")), ("-", "G", ("n0", "n1"))]
        )
        assert ("T", ("n2", "n3")) in result.report.inserted
        assert ("T", ("n0", "n1")) in result.report.deleted
        assert engine.consistent_with_scratch()

    def test_unknown_sign_rejected(self):
        engine = DifferentialEngine(tc_program(), graph_database(chain(3)))
        with pytest.raises(SchemaError):
            engine.apply([("~", "G", ("a", "b"))])

    def test_duplicate_insert_and_absent_delete_are_noops(self):
        engine = DifferentialEngine(tc_program(), graph_database(chain(3)))
        assert not engine.insert([("G", ("n0", "n1"))]).report
        assert not engine.delete([("G", ("zz", "zz"))]).report


class TestSubscriptions:
    def test_subscriber_receives_relation_diffs(self):
        engine = DifferentialEngine(tc_program(), graph_database(chain(3)))
        subscription = engine.subscribe("T")
        result = engine.insert([("G", ("n2", "n3"))])
        diff = result.for_subscriber(subscription)
        assert diff.relation == "T"
        assert diff.inserted == frozenset(
            {("n0", "n3"), ("n1", "n3"), ("n2", "n3")}
        )
        assert diff.deleted == frozenset()

    def test_each_subscriber_sees_only_its_relation(self):
        engine = DifferentialEngine(MIXED, graph_database(chain(3)))
        sub_t = engine.subscribe("T")
        sub_mutual = engine.subscribe("mutual")
        result = engine.insert([("G", ("n2", "n0"))])
        assert result.diffs[sub_t].inserted
        assert all(
            fact in engine.answer("mutual")
            for fact in result.diffs[sub_mutual].inserted
        )
        assert ("n0", "n1") in result.diffs[sub_mutual].inserted

    def test_cancelled_subscription_stops_receiving(self):
        engine = DifferentialEngine(tc_program(), graph_database(chain(3)))
        subscription = engine.subscribe("T")
        subscription.cancel()
        result = engine.insert([("G", ("n2", "n3"))])
        assert subscription not in result.diffs
        # for_subscriber degrades to an empty diff.
        assert not result.for_subscriber(subscription)

    def test_unknown_relation_rejected(self):
        engine = DifferentialEngine(tc_program(), graph_database(chain(3)))
        with pytest.raises(SchemaError):
            engine.subscribe("nope")

    def test_edb_subscription_echoes_base_changes(self):
        engine = DifferentialEngine(tc_program(), graph_database(chain(3)))
        subscription = engine.subscribe("G")
        result = engine.insert([("G", ("n2", "n3"))])
        assert result.diffs[subscription].inserted == frozenset(
            {("n2", "n3")}
        )


class TestDifferentialCounters:
    def test_counters_present_and_json_able(self):
        import json

        engine = DifferentialEngine(tc_program(), graph_database(chain(4)))
        engine.insert([("G", ("n3", "n4"))])
        counters = engine.stats.differential
        assert counters["updates"] == 1
        assert counters["view_size"] == len(engine.answer("T")) + len(
            engine.answer("G")
        )
        json.dumps(engine.stats.to_dict())  # stays schema-serializable

    def test_small_update_touches_less_than_view(self):
        engine = DifferentialEngine(
            tc_nonlinear_program(), graph_database(chain(40))
        )
        engine.insert([("G", ("x", "n0"))])
        counters = engine.stats.differential
        assert 0 < counters["last_facts_touched"] < counters["view_size"]

    def test_overdelete_and_rederive_are_counted(self):
        edges = [("a", "m1"), ("m1", "b"), ("a", "m2"), ("m2", "b")]
        engine = DifferentialEngine(tc_program(), graph_database(edges))
        result = engine.delete([("G", ("a", "m1"))])
        assert result.report.overdeleted == 2  # T(a,m1), T(a,b)
        assert engine.stats.differential["rederived"] == 1  # T(a,b) survives


def stream_step(rng, engine_or_view, edb_schema, constants):
    """One random operation against a view; returns nothing.

    Exercises the documented edges on purpose: empty batches,
    duplicate inserts, and deletes of absent facts.
    """
    roll = rng.random()
    if roll < 0.05 and hasattr(engine_or_view, "apply"):
        engine_or_view.apply(DiffBatch())
        return
    facts = []
    for _ in range(rng.randint(1, 3)):
        relation = rng.choice(sorted(edb_schema))
        values = tuple(
            rng.choice(constants) for _ in range(edb_schema[relation])
        )
        facts.append((relation, values))
    if roll < 0.5:
        engine_or_view.insert(facts)
    else:
        engine_or_view.delete(facts)


EDGE_NODES = [f"n{i}" for i in range(5)]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize(
    "make_view",
    [
        lambda p, b: DifferentialEngine(p, b),
        lambda p, b: MaterializedView(p, b),
    ],
    ids=["engine", "materialized"],
)
def test_recursive_stream_differential(seed, make_view):
    """Insert/delete streams on TC: view == scratch after *every* op."""
    rng = random.Random(seed)
    start = [
        (rng.choice(EDGE_NODES), rng.choice(EDGE_NODES)) for _ in range(6)
    ]
    view = make_view(tc_program(), graph_database(start))
    for _ in range(12):
        stream_step(rng, view, {"G": 2}, EDGE_NODES)
        view.database.check_invariants()
        assert view_answers(view) == scratch_answers(view)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize(
    "make_view",
    [
        lambda p, b: DifferentialEngine(p, b),
        lambda p, b: CountingView(p, b),
    ],
    ids=["engine", "counting"],
)
def test_nonrecursive_stream_differential(seed, make_view):
    """Insert/delete streams on TWO_HOP: view == scratch after every op."""
    rng = random.Random(seed)
    start = [
        (rng.choice(EDGE_NODES), rng.choice(EDGE_NODES)) for _ in range(5)
    ]
    view = make_view(TWO_HOP, Database({"G": start}))
    for _ in range(12):
        stream_step(rng, view, {"G": 2}, EDGE_NODES)
        view.database.check_invariants()
        assert view_answers(view) == scratch_answers(view)


@pytest.mark.parametrize("seed", range(50))
def test_random_program_stream_differential(seed):
    """The acceptance spine: 50 random programs, random insert/delete
    streams, engine answers equal from-scratch semi-naive evaluation
    after every update.  The generator recurses through the IDB, so
    both DRed (recursive SCC) and counting (nonrecursive SCC) paths
    are exercised across the seeds."""
    rng = random.Random(seed)
    source, db = random_program_and_database(rng)
    program = parse_program(source, name=f"stream-{seed}")
    engine = DifferentialEngine(program, db)
    assert view_answers(engine) == scratch_answers(engine)

    edb_schema = {rel: program.arity(rel) for rel in program.edb}
    if not edb_schema:
        return  # nothing updatable: ground-rule-only program
    constants = ["a", "b", "c", "d"]
    for _ in range(8):
        stream_step(rng, engine, edb_schema, constants)
        engine.database.check_invariants()
        assert view_answers(engine) == scratch_answers(engine), source


def test_random_programs_cover_both_strategies():
    """Sanity: across the 50 stream seeds, the generator produces both
    recursive (DRed) and nonrecursive (counting) components."""
    strategies = set()
    for seed in range(50):
        rng = random.Random(seed)
        source, db = random_program_and_database(rng)
        program = parse_program(source, name=f"strategies-{seed}")
        engine = DifferentialEngine(program, db)
        for component in engine.stats.differential["components"]:
            strategies.add(component["strategy"])
        if strategies == {"counting", "dred"}:
            return
    raise AssertionError(f"only saw strategies {strategies}")


class TestEngineEquivalence:
    """The engine must subsume both legacy views exactly."""

    def test_matches_materialized_view_reports(self):
        base = graph_database(chain(4))
        engine = DifferentialEngine(tc_program(), base)
        view = MaterializedView(tc_program(), base)
        ops = [
            ("insert", [("G", ("n3", "n0"))]),
            ("delete", [("G", ("n1", "n2"))]),
            ("insert", [("G", ("n1", "n2")), ("G", ("n0", "n2"))]),
        ]
        for op, facts in ops:
            report_e = getattr(engine, op)(facts).report
            report_v = getattr(view, op)(facts)
            assert report_e.inserted == report_v.inserted
            assert report_e.deleted == report_v.deleted
            assert view_answers(engine) == view_answers(view)

    def test_matches_counting_view_counts(self):
        base = Database(
            {"G": [("a", "b"), ("b", "c"), ("a", "d"), ("d", "c")]}
        )
        engine = DifferentialEngine(TWO_HOP, base)
        view = CountingView(TWO_HOP, base)
        assert engine.counts == view.counts
        engine.delete([("G", ("a", "b"))])
        view.delete([("G", ("a", "b"))])
        assert engine.counts == view.counts
        assert engine.counts[("hop2", ("a", "c"))] == 1
