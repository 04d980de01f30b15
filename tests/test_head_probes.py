"""Head-bound derivation counts: the per-rule probe against its oracle.

``DifferentialEngine._derivation_count`` runs a rule's head probe
(constant and repeated-variable checks, a seed tuple) into a bound
plan chosen once per scan.  These tests pin it to the interpreted
oracle (``matcher_override("interpreted")``) and to a brute-force count
over ``iter_matches``, with and without ``limit=1``, on head
constants, repeated head variables, several rules for one head and
empty or absent body relations.  They also check that a cleared plan
cache between updates cannot leave a stale plan behind, and that the
differential counters mean the same on every matcher tier.
"""

import itertools
import random

import pytest

from repro.parser import parse_program
from repro.relational.instance import Database
from repro.semantics.base import (
    evaluation_adom,
    instantiate_head,
    iter_matches,
)
from repro.semantics.differential import DiffBatch, DifferentialEngine
from repro.semantics.plan import PlanCache, matcher_override

from tests.test_differential_view import scratch_answers, view_answers

CONSTANTS = ["a", "b", "c", "d"]
EDGES = [("a", "b"), ("b", "c"), ("c", "a"), ("b", "b"), ("c", "d"),
         ("a", "c")]

CASES = {
    "head_constants": (
        """
        P('a', y) :- G(x, y).
        P(x, 'c') :- G(x, y), G(y, 'c').
        """,
        {"G": EDGES},
    ),
    "repeated_head_variable": (
        """
        Q(x, x) :- G(x, y).
        Q3(x, y, x) :- G(x, y), G(y, x).
        """,
        {"G": EDGES},
    ),
    "two_rules_one_head": (
        """
        R(x, y) :- G(x, y).
        R(x, y) :- G(x, z), G(z, y).
        """,
        {"G": EDGES},
    ),
    "recursive_head": (
        """
        T(x, y) :- G(x, y).
        T(x, y) :- T(x, z), T(z, y).
        """,
        {"G": EDGES},
    ),
    "absent_body_relation": (
        """
        S(x) :- G(x, y), E(y).
        S(x) :- G(x, x).
        """,
        {"G": EDGES},
    ),
    "empty_body_relation": (
        """
        S(x) :- G(x, y), E(y).
        S(x) :- G(x, x).
        """,
        {"G": EDGES, ("E", 1): []},
    ),
}


def candidate_facts(engine):
    """Every fact over the constants for each IDB relation and arity."""
    facts = []
    for relation in sorted(engine.program.idb):
        arity = engine.program.arity(relation)
        for values in itertools.product(CONSTANTS, repeat=arity):
            facts.append((relation, values))
    return facts


def brute_force_count(engine, fact) -> int:
    """Valuations of the fact's head rules that instantiate to it."""
    relation, values = fact
    db = engine.database
    adom = evaluation_adom(engine.program, db)
    total = 0
    for rule in engine.program.rules:
        if relation not in rule.head_relations():
            continue
        for valuation in iter_matches(rule, db, adom):
            for rel, t, _ in instantiate_head(rule, valuation):
                total += (rel, t) == fact
    return total


@pytest.mark.parametrize("case", sorted(CASES))
def test_probe_count_equals_interpreted_oracle(case):
    source, contents = CASES[case]
    program = parse_program(source, name=f"probe-{case}")
    engine = DifferentialEngine(program, Database(contents))
    for fact in candidate_facts(engine):
        with matcher_override("columnar"):
            count = engine._derivation_count(fact)
            exists = engine._derivation_count(fact, limit=1)
        with matcher_override("codegen"):
            assert engine._derivation_count(fact) == count, fact
        with matcher_override("interpreted"):
            assert engine._derivation_count(fact) == count, fact
            assert engine._derivation_count(fact, limit=1) == exists, fact
            assert brute_force_count(engine, fact) == count, fact
        assert exists == min(count, 1), fact


def test_head_checks_reject_contradicting_facts():
    program = parse_program(CASES["head_constants"][0] +
                            CASES["repeated_head_variable"][0])
    engine = DifferentialEngine(program, Database({"G": EDGES}))
    # Head constant 'a' in position 0 of the only rule that could fire.
    assert engine._derivation_count(("P", ("b", "b"))) == 0
    assert engine._derivation_count(("P", ("a", "b"))) == 2  # via a, b
    # Q(x, x): the two positions must agree.
    assert engine._derivation_count(("Q", ("a", "b"))) == 0
    assert engine._derivation_count(("Q", ("a", "a"))) == 2


def test_counts_match_the_maintained_counts():
    """The counting strategy's stored counts are probe counts."""
    source, contents = CASES["two_rules_one_head"]
    engine = DifferentialEngine(parse_program(source), Database(contents))
    assert engine.strategy_of("R") == "counting"
    for fact in candidate_facts(engine):
        assert engine.counts.get(fact, 0) == engine._derivation_count(fact)


MIXED = """
T(x, y) :- G(x, y).
T(x, y) :- T(x, z), T(z, y).
Back(x, y) :- T(x, z), G(y, z).
"""


@pytest.mark.parametrize("seed", range(4))
def test_plan_cache_clear_between_updates(seed):
    """A scan binds its plans through ``plan_for``; clearing the cache
    between updates must not leave a stale plan behind."""
    rng = random.Random(seed)
    nodes = [f"n{i}" for i in range(6)]
    start = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(9)]
    engine = DifferentialEngine(parse_program(MIXED),
                                Database({"G": start}))
    for _ in range(10):
        edge = (rng.choice(nodes), rng.choice(nodes))
        if rng.random() < 0.5:
            engine.insert([("G", edge)])
        else:
            engine.delete([("G", edge)])
        PlanCache.clear()
        edge = (rng.choice(nodes), rng.choice(nodes))
        engine.apply(DiffBatch(deletes=(("G", edge),)))
        engine.database.check_invariants()
        assert view_answers(engine) == scratch_answers(engine)


def cycle_chain(sizes):
    """A chain of cycles, each entered at its first node and left from
    its middle one (the shape of the update-stream benchmark graph)."""
    sccs, edges, k = [], set(), 0
    for m in sizes:
        nodes = [f"u{k + j}" for j in range(m)]
        k += m
        sccs.append(nodes)
        edges.update((nodes[j], nodes[(j + 1) % m]) for j in range(m))
    for a in range(len(sccs) - 1):
        edges.add((sccs[a][len(sccs[a]) // 2], sccs[a + 1][0]))
    return sccs, sorted(edges)


def run_stream(matcher, updates=200, seed=3):
    """Per-update subscriber diffs and the final differential counters
    of one seeded stream, run wholly under ``matcher``."""
    sccs, edges = cycle_chain([2, 3, 8, 3, 2])
    rng = random.Random(seed)
    present = set(edges)
    diffs = []
    with matcher_override(matcher):
        engine = DifferentialEngine(parse_program(MIXED),
                                    Database({"G": edges}))
        subscriptions = [engine.subscribe(r) for r in ("T", "Back")]
        for _ in range(updates):
            if rng.random() < 0.5:
                edge = rng.choice(sorted(present))
                present.discard(edge)
                result = engine.delete([("G", edge)])
            else:
                a = rng.randrange(len(sccs))
                b = rng.randrange(a, len(sccs))
                edge = (rng.choice(sccs[a]), rng.choice(sccs[b]))
                present.add(edge)
                result = engine.insert([("G", edge)])
            diffs.append(tuple(
                (s.relation, result.for_subscriber(s).inserted,
                 result.for_subscriber(s).deleted)
                for s in subscriptions
            ))
    counters = {
        key: engine.stats.differential[key]
        for key in ("support_checks", "overdeleted", "rederived",
                    "recounted", "facts_touched")
    }
    return diffs, counters


def test_counters_mean_the_same_on_every_tier():
    diffs, counters = run_stream("columnar")
    assert counters["support_checks"] and counters["recounted"]
    assert counters["overdeleted"] and counters["rederived"]
    for matcher in ("codegen", "interpreted"):
        other_diffs, other_counters = run_stream(matcher)
        assert other_counters == counters, matcher
        assert other_diffs == diffs, matcher
