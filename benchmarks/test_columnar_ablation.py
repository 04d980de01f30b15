"""PERF — the three-way matcher-tier ablation behind ``BENCH_columnar.json``.

The same workload run under each matcher tier:

* ``columnar`` — whole-delta batch kernels: semi-naive drivers freeze
  deltas into delta blocks and each ``walk_batch``/``emit_batch``
  variant consumes the entire block in one specialized list
  comprehension (rows unpacked into locals, index ``.get``\\ s hoisted,
  full-depth chain probes inlined), the default;
* ``codegen`` — the same specialized Python, tuple at a time;
* ``interpreted`` — the reference matcher.

All cells run with the query planner on, so the deltas isolate the
matcher tier itself.  Workloads are the repo's committed perf shapes:

* nonlinear transitive closure on a chain — the self-join probes the
  growing ``T`` through a hash index every stage; every delta pass is
  one block, the batch kernels' best case;
* chain of gated TC components — multi-SCC, planner-scheduled, heavy
  on the fused ``emit_batch`` head-emission path;
* the feedback ring — skewed fan-out joins where per-block hoisting of
  the index loads pays off.

Shape asserted: all three tiers produce identical answers, stage
counts, and rule firings (each tier is an optimization, never a
semantics change).  Wall-clock is recorded in the artifact rather than
asserted — at CI smoke sizes the difference is noise; the committed
full-size artifact carries the speedup evidence (columnar ≥1.3× over
codegen at n=60 on at least two workloads).

Set ``REPRO_BENCH_SIZES`` (comma-separated) to override the size sweep,
e.g. ``REPRO_BENCH_SIZES=8,12`` for a CI smoke run."""

import gc
import os

import pytest

from repro.programs.component_chain import (
    component_chain_database,
    component_chain_program,
    reference_component_chain,
)
from repro.programs.feedback_ring import (
    feedback_ring_database,
    feedback_ring_program,
    reference_feedback_ring,
)
from repro.programs.tc import tc_nonlinear_program
from repro.semantics.plan import PlanCache, matcher_override
from repro.semantics.seminaive import evaluate_datalog_seminaive
from repro.workloads.graphs import chain, graph_database

SIZES = [
    int(s)
    for s in os.environ.get("REPRO_BENCH_SIZES", "16,32,60").split(",")
    if s.strip()
]

MATCHERS = ["columnar", "codegen", "interpreted"]


def _with_tier(tier: str, run):
    """Run ``run()`` under *exactly* the given matcher tier."""
    # The defaults: the full stack, columnar on top.
    assert PlanCache.compiled_plans and PlanCache.columnar
    with matcher_override(tier):
        return run()


def _measure(benchmark, tier, run, rounds=9):
    """Benchmark ``run()`` under ``tier``; (last result, best stats).

    The artifact wants a stable wall-clock number: the *minimum*
    ``stats.seconds`` across the warm rounds (GC paused, collected
    between rounds), not whichever round happened to run last under
    scheduler noise.  The warmup round also amortizes the one-time
    ``compile_plan`` cost out of the recorded cells.
    """
    results = []

    def sample():
        gc.collect()
        gc.disable()
        try:
            result = _with_tier(tier, run)
        finally:
            gc.enable()
        results.append(result)
        return result

    last = benchmark.pedantic(
        sample, rounds=rounds, iterations=1, warmup_rounds=1
    )
    best = min(results, key=lambda r: r.stats.seconds)
    return last, best.stats


def _assert_tier_parity(result, run):
    """Every tier must be observably identical to the reference matcher."""
    reference = _with_tier("interpreted", run)
    for relation in sorted(reference.database.relation_names()):
        assert result.database.tuples(relation) == reference.database.tuples(
            relation
        ), relation
    assert result.stats.stage_count == reference.stats.stage_count
    assert result.stats.rule_firings == reference.stats.rule_firings


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("matcher", MATCHERS)
def test_columnar_tc_nonlinear(benchmark, columnar_artifact, matcher, n):
    program = tc_nonlinear_program()
    edges = chain(n)

    def run():
        return evaluate_datalog_seminaive(program, graph_database(edges))

    result, stats = _measure(benchmark, matcher, run)
    assert result.stats.matcher == matcher
    _assert_tier_parity(result, run)
    columnar_artifact.record("tc_nonlinear_chain", matcher, n, stats)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("matcher", MATCHERS)
def test_columnar_component_chain(benchmark, columnar_artifact, matcher, n):
    # n components of chain length 16 — the fused emit_batch path under
    # the planner's SCC schedule.
    program = component_chain_program(n)
    db = component_chain_database(n)
    reference = reference_component_chain(n)

    def run():
        return evaluate_datalog_seminaive(program, db)

    result, stats = _measure(benchmark, matcher, run, rounds=3)
    assert result.stats.matcher == matcher
    for relation, expected in reference.items():
        assert result.answer(relation) == expected, relation
    _assert_tier_parity(result, run)
    columnar_artifact.record("component_chain", matcher, n, stats)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("matcher", MATCHERS)
def test_columnar_feedback_ring(benchmark, columnar_artifact, matcher, n):
    program = feedback_ring_program()
    db = feedback_ring_database(n)
    reference = reference_feedback_ring(n)

    def run():
        return evaluate_datalog_seminaive(program, db)

    result, stats = _measure(benchmark, matcher, run, rounds=5)
    assert result.stats.matcher == matcher
    for relation, expected in reference.items():
        assert result.answer(relation) == expected, relation
    _assert_tier_parity(result, run)
    columnar_artifact.record("feedback_ring", matcher, n, stats)
