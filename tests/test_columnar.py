"""Columnar batch execution: the pieces under the tier.

:mod:`tests.test_codegen` pins the columnar *tier* end-to-end (answer
parity, seeded replays, dispatch precedence).  This module tests the
parts it is built from: the delta block, the bulk relation mutators
the batch drivers use
(``add_batch``/``live_set``), the snapshot-vs-live contract of the two
chain-probe flavors, chain-count maintenance under heavy ``discard``
(the noninflationary engines' skewed-bucket pattern), the shape of the
emitted batch kernels, and the flag hygiene of ``matcher_override`` /
``kernel_difference`` (a mid-run exception must not leak a flipped
class-level toggle into later tests).
"""

import pytest

from repro.errors import SchemaError
from repro.parser import parse_program
from repro.relational.instance import Relation
from repro.semantics.codegen import CodegenPlan, compile_plan
from repro.semantics.differential import DifferentialEngine
from repro.semantics.plan import (
    DeltaBlock,
    PlanCache,
    kernel_difference,
    matcher_override,
    plan_for,
)
from repro.semantics.seminaive import evaluate_datalog_seminaive
from repro.workloads.graphs import chain, graph_database

TC_NONLINEAR = "T(x, y) :- G(x, y).\nT(x, y) :- T(x, z), T(z, y).\n"


class TestDeltaBlock:

    def test_iterates_in_frozenset_enumeration_order(self):
        facts = frozenset((i, i + 1) for i in range(20))
        block = DeltaBlock(facts)
        # The contract that keeps seeded engines byte-identical under a
        # tier flip: the block is a drop-in for the frozenset it wraps.
        assert list(block) == list(facts)
        assert block.rows == tuple(facts)
        assert len(block) == 20 and block
        assert (0, 1) in block and (1, 0) not in block

    def test_empty_block(self):
        block = DeltaBlock(frozenset())
        assert not block and len(block) == 0
        assert list(block) == []


class TestAddBatch:

    def test_returns_fresh_in_input_order(self):
        rel = Relation("R", 2, [(1, 2)])
        fresh = rel.add_batch([(3, 4), (1, 2), (5, 6), (3, 4)])
        # Duplicates against the relation are filtered; input order is
        # preserved (the absorb path feeds trace.new_facts from this).
        assert fresh == [(3, 4), (5, 6), (3, 4)]
        assert set(rel) == {(1, 2), (3, 4), (5, 6)}

    def test_arity_mismatch_raises(self):
        rel = Relation("R", 2)
        with pytest.raises(SchemaError):
            rel.add_batch([(1, 2), (3,)])

    def test_maintains_live_indexes(self):
        rel = Relation("R", 2, [(1, 2)])
        index = rel.index((0,))
        trie = rel.chain_index((0, 1))
        rel.add_batch([(1, 9), (7, 8)])
        assert set(index[(1,)]) == {(1, 2), (1, 9)}
        assert set(trie[7][8]) == {(7, 8)}
        # The maintained shapes match a from-scratch rebuild.
        rebuilt = Relation("R", 2, rel.tuples())
        assert rebuilt.index((0,)) == rel.index((0,))
        assert rebuilt.chain_index((0, 1)) == rel.chain_index((0, 1))

    def test_version_counts_fresh_only(self):
        rel = Relation("R", 1, [(1,)])
        before = rel.version
        rel.add_batch([(1,), (2,), (3,)])
        assert rel.version == before + 2


class TestLiveSet:

    def test_is_the_live_set_not_a_copy(self):
        rel = Relation("R", 1, [(1,)])
        live = rel.live_set()
        snapshot = rel.tuples()
        rel.add((2,))
        assert (2,) in live  # zero-copy view tracks mutation
        assert (2,) not in snapshot  # frozenset snapshot does not


class TestChainProbeSemantics:
    """Satellite: ``probe_chain_live`` vs ``probe_chain`` under mutation."""

    def _rel(self):
        return Relation("R", 2, [(1, 2), (1, 3), (4, 5)])

    def test_probe_chain_is_a_snapshot(self):
        rel = self._rel()
        bucket = rel.probe_chain((0, 1), 1, (1,))
        assert sorted(bucket) == [(1, 2), (1, 3)]
        rel.add((1, 9))
        rel.discard((1, 2))
        # The snapshot is immune to the mutations...
        assert sorted(bucket) == [(1, 2), (1, 3)]
        # ...while a fresh probe sees them.
        assert sorted(rel.probe_chain((0, 1), 1, (1,))) == [(1, 3), (1, 9)]

    def test_probe_chain_live_full_depth_tracks_mutation(self):
        rel = self._rel()
        bucket = rel.probe_chain_live((0, 1), 2, (1, 2))
        assert list(bucket) == [(1, 2)]
        rel.discard((1, 2))
        # Full-depth live probes return the bucket itself: the discard
        # is visible.  This is exactly why the fused kernels may not
        # yield control mid-walk.
        assert list(bucket) == []

    def test_probe_flavors_agree_when_quiescent(self):
        rel = self._rel()
        for depth, key in ((0, ()), (1, (1,)), (2, (1, 3))):
            assert (sorted(rel.probe_chain((0, 1), depth, key))
                    == sorted(rel.probe_chain_live((0, 1), depth, key)))

    def test_missing_key_is_empty_for_both(self):
        rel = self._rel()
        assert rel.probe_chain((0, 1), 1, (99,)) == []
        assert list(rel.probe_chain_live((0, 1), 1, (99,))) == []


class TestChainCountsUnderDiscard:
    """Satellite: count maintenance under the skewed-bucket pattern."""

    def test_heavy_discard_keeps_counts_exact(self):
        # One fat key (0, *) next to singletons — the shape the
        # noninflationary engines carve down tuple by tuple.
        fat = [(0, i) for i in range(50)]
        thin = [(i, 0) for i in range(1, 11)]
        rel = Relation("R", 2, fat + thin)
        rel.chain_index((0, 1))
        assert rel.chain_key_count((0, 1), 1) == 11
        assert rel.chain_key_count((0, 1), 2) == 60
        for t in fat[:-1]:
            rel.discard(t)
        # The fat bucket survives with one row; both depths shrank.
        assert rel.chain_key_count((0, 1), 1) == 11
        assert rel.chain_key_count((0, 1), 2) == 11
        rel.discard(fat[-1])
        # Pruning the last row of the key drops the depth-1 node too.
        assert rel.chain_key_count((0, 1), 1) == 10
        # The maintained counts match a from-scratch rebuild.
        rebuilt = Relation("R", 2, rel.tuples())
        rebuilt.chain_index((0, 1))
        for depth in (1, 2):
            assert (rel.chain_key_count((0, 1), depth)
                    == rebuilt.chain_key_count((0, 1), depth))

    def test_discard_to_empty_and_refill(self):
        rel = Relation("R", 2, [(1, 2), (1, 3)])
        rel.chain_index((0, 1))
        for t in [(1, 2), (1, 3)]:
            rel.discard(t)
        assert rel.chain_key_count((0, 1), 1) == 0
        rel.add((5, 6))
        assert rel.chain_key_count((0, 1), 1) == 1
        assert rel.probe_chain((0, 1), 2, (5, 6)) == [(5, 6)]


class TestBatchKernelShape:

    def _cg(self):
        program = parse_program(TC_NONLINEAR)
        return compile_plan(plan_for(program.rules[1], (0, 1)))

    def test_batch_variants_present(self):
        cg = self._cg()
        for name in ("def walk_batch_full(", "def walk_batch_r0(",
                     "def emit_batch_full(", "def emit_batch_r0("):
            assert name in cg.source, name

    def test_fused_batch_takes_known_and_subtracts(self):
        cg = self._cg()
        emit = cg.source[cg.source.index("def emit_batch_r0"):]
        # The in-kernel semi-naive difference: the kernel subtracts the
        # head relation's live content before wrapping survivors.
        assert "known" in emit.split("\n")[0]
        assert "difference_update(known)" in emit

    def test_dispatch_floor_falls_back_to_scalar(self):
        # Below BATCH_MIN_ROWS the batch machinery cannot amortize;
        # dispatch must take the scalar fused path instead.
        assert 1 < CodegenPlan.BATCH_MIN_ROWS <= 16

    def test_subtract_known_defaults_off(self):
        # Full consequence sets are the safe default: active-database
        # trigger steps and noninflationary conflict policies read
        # consequences as "everything derivable".
        assert CodegenPlan.subtract_known is False


class TestFlagHygiene:

    def test_matcher_override_restores_on_exception(self):
        saved = (PlanCache.compiled_plans, PlanCache.columnar)
        with pytest.raises(RuntimeError):
            with matcher_override("interpreted"):
                assert not PlanCache.compiled_plans
                raise RuntimeError("mid-run failure")
        assert (PlanCache.compiled_plans, PlanCache.columnar) == saved

    def test_matcher_override_rejects_unknown_tier(self):
        saved = (PlanCache.compiled_plans, PlanCache.columnar)
        # "compiled" named the plan-interpreter rung, which is gone.
        for tier in ("vectorized-gpu", "compiled"):
            with pytest.raises(KeyError):
                with matcher_override(tier):
                    pass  # pragma: no cover
            assert (PlanCache.compiled_plans, PlanCache.columnar) == saved

    def test_kernel_difference_restores_on_exception(self):
        assert CodegenPlan.subtract_known is False
        with pytest.raises(RuntimeError):
            with kernel_difference():
                assert CodegenPlan.subtract_known is True
                raise RuntimeError("mid-fixpoint failure")
        assert CodegenPlan.subtract_known is False

    def test_kernel_difference_nests(self):
        with kernel_difference():
            with kernel_difference():
                assert CodegenPlan.subtract_known is True
            assert CodegenPlan.subtract_known is True
        assert CodegenPlan.subtract_known is False


class TestKernelDifferenceParity:

    def test_subtraction_does_not_change_answers_or_stages(self):
        program = parse_program(TC_NONLINEAR)
        db = graph_database(chain(12))
        with matcher_override("columnar"):
            with_diff = evaluate_datalog_seminaive(program, db)
        # Force every kernel to emit full consequence sets.
        with matcher_override("columnar"), kernel_difference():
            CodegenPlan.subtract_known = False
            without = evaluate_datalog_seminaive(program, db)
        assert with_diff.database.tuples("T") == without.database.tuples("T")
        assert with_diff.stats.stage_count == without.stats.stage_count
        assert with_diff.rule_firings == without.rule_firings


class TestDifferentialThroughTiers:

    def test_single_update_parity_columnar_vs_interpreted(self):
        program = parse_program(TC_NONLINEAR)
        outcomes = {}
        for tier in ("columnar", "interpreted"):
            with matcher_override(tier):
                engine = DifferentialEngine(
                    program, graph_database(chain(10))
                )
                engine.insert([("G", (10, 11))])
                engine.delete([("G", (4, 5))])
                assert engine.consistent_with_scratch()
                outcomes[tier] = {"T": engine.answer("T"),
                                  "G": engine.answer("G")}
        assert outcomes["columnar"] == outcomes["interpreted"]
