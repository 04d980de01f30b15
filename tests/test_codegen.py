"""The codegen matcher tier: emitted source, dispatch, cache coherence.

The contract under test: :mod:`repro.semantics.codegen` is the
production executor of compiled plans — byte-identical match
enumeration, identical answers, firings, and stages versus the
reference interpreted matcher, under every engine and in both the
scalar (``codegen``) and batch (``columnar``) tiers.  The evidence
here is layered: shape checks on the emitted source, a 50-program
three-way differential across four semantics, seeded byte-identical
replays of the choice and nondeterministic engines, and the cache
coherence rules (toggle flips bypass immediately, ``PlanCache.clear``
and cover twins never run stale functions).
"""

import contextlib
import io
import random

import pytest

from repro.cli import main
from repro.parser import parse_program
from repro.relational.instance import Database
from repro.semantics.base import iter_matches
from repro.semantics.choice import evaluate_with_choice
from repro.semantics.codegen import compile_plan, dump_codegen
from repro.semantics.differential import DifferentialEngine
from repro.semantics.naive import evaluate_datalog_naive
from repro.semantics.nondeterministic import run_nondeterministic
from repro.semantics.plan import (
    PlanCache,
    active_matcher,
    matcher_override,
    plan_for,
    plan_with_cover,
)
from repro.semantics.seminaive import evaluate_datalog_seminaive
from repro.semantics.stratified import evaluate_stratified
from repro.semantics.wellfounded import evaluate_wellfounded
from repro.workloads.graphs import chain, graph_database
from tests.test_differential_engines import random_program_and_database

TIERS = ("columnar", "codegen", "interpreted")


@contextlib.contextmanager
def _tier(tier: str):
    """Run the body under one matcher tier, restoring the defaults."""
    # the defaults: the full stack is on
    assert PlanCache.compiled_plans and PlanCache.columnar
    with matcher_override(tier):
        yield


TC_NONLINEAR = "T(x, y) :- G(x, y).\nT(x, y) :- T(x, z), T(z, y).\n"


def _tc_db(n: int = 8) -> Database:
    return graph_database(chain(n))


class TestEmittedSource:
    """The generated module has the promised shape."""

    def _plan(self):
        program = parse_program(TC_NONLINEAR)
        rule = program.rules[1]  # T(x,y) :- T(x,z), T(z,y).
        return plan_for(rule, (0, 1))

    def test_variants_present(self):
        cg = compile_plan(self._plan())
        for name in ("def walk_full(", "def walk_r0(", "def walk_r1(",
                     "def emit_full(", "def emit_r0(", "def emit_r1(",
                     "def group_r1("):
            assert name in cg.source, name

    def test_constants_and_head_baked(self):
        cg = compile_plan(self._plan())
        # The relation name and the head template are literals in the
        # source, not runtime lookups.
        assert "db.relation('T')" in cg.source
        assert "add(('T', " in cg.source
        assert cg.head_relation == "T"

    def test_fused_flavor_skips_snapshots(self):
        cg = compile_plan(self._plan())
        # The generator flavor snapshots each bucket (consumers may
        # mutate the database between yields); the fused flavor never
        # yields, so it iterates buckets live.
        walk = cg.source[cg.source.index("def walk_full"):
                         cg.source.index("def walk_r0")]
        emit = cg.source[cg.source.index("def emit_full"):
                         cg.source.index("def emit_r0")]
        assert "list(" in walk
        assert "list(" not in emit

    def test_source_compiles_to_working_walk(self):
        plan = self._plan()
        cg = compile_plan(plan)
        db = _tc_db(4)
        db.ensure_relation("T", 2).update(db.tuples("G"))
        rows = {
            frozenset((v, slots[s]) for v, s in plan.out_vars)
            for slots in cg.run(db, (), -1, None)
        }
        with matcher_override("interpreted"):
            oracle = {
                frozenset(valuation.items())
                for valuation in iter_matches(plan.rule, db, ())
            }
        assert rows and rows == oracle

    def test_dump_codegen_writes_sources(self, tmp_path):
        program = parse_program(TC_NONLINEAR)
        evaluate_datalog_seminaive(program, _tc_db(4))
        paths = dump_codegen(program, str(tmp_path))
        assert paths, "no generated sources written"
        for path in paths:
            text = open(path).read()
            assert "# codegen for rule:" in text
            assert "def walk_full(" in text


class TestTierDispatch:
    """Tier precedence, stats surface, and the traced-run downgrade."""

    def test_columnar_is_the_default(self):
        assert PlanCache.compiled_plans and PlanCache.columnar
        assert active_matcher() == "columnar"
        with matcher_override("codegen"):
            assert active_matcher() == "codegen"

    @pytest.mark.parametrize("tier", TIERS)
    def test_stats_report_the_tier(self, tier):
        program = parse_program(TC_NONLINEAR)
        with _tier(tier):
            result = evaluate_datalog_seminaive(program, _tc_db())
        assert result.stats.matcher == tier

    def test_tiers_agree_on_answers(self):
        program = parse_program(TC_NONLINEAR)
        answers = {}
        firings = {}
        for tier in TIERS:
            with _tier(tier):
                result = evaluate_datalog_seminaive(program, _tc_db())
            answers[tier] = result.answer("T")
            firings[tier] = result.stats.rule_firings
        assert len(set(map(frozenset, answers.values()))) == 1
        assert len(set(firings.values())) == 1

    def test_traced_run_drops_to_interpreted(self):
        # Join-probe counts must stay exact, so a traced run bypasses
        # the generated tiers even while they are on.
        from repro.obs import CollectorSink, Tracer

        program = parse_program(TC_NONLINEAR)
        assert PlanCache.compiled_plans
        result = evaluate_datalog_seminaive(
            program, _tc_db(), tracer=Tracer([CollectorSink()])
        )
        assert result.stats.matcher == "interpreted"


class TestCacheCoherence:
    """Stale generated functions must never run."""

    def test_toggle_flips_bypass_immediately(self):
        # Warm the codegen cache, then flip tiers *without* clearing
        # any cache: each subsequent run must use (and report) its own
        # tier and produce identical answers.
        program = parse_program(TC_NONLINEAR)
        db = _tc_db()
        with _tier("columnar"):
            warm = evaluate_datalog_seminaive(program, db)
        with _tier("codegen"):
            codegen = evaluate_datalog_seminaive(program, db)
        with _tier("interpreted"):
            interpreted = evaluate_datalog_seminaive(program, db)
        with _tier("columnar"):
            again = evaluate_datalog_seminaive(program, db)
        assert warm.answer("T") == codegen.answer("T")
        assert warm.answer("T") == interpreted.answer("T")
        assert warm.answer("T") == again.answer("T")
        assert codegen.stats.matcher == "codegen"
        assert interpreted.stats.matcher == "interpreted"
        assert again.stats.matcher == "columnar"

    def test_toggle_flip_between_differential_batches(self):
        # A maintained view evaluated across a mid-session tier flip
        # must match the from-scratch model at every step.
        program = parse_program(TC_NONLINEAR)
        base = graph_database(chain(6))
        with _tier("columnar"):
            engine = DifferentialEngine(program, base)
        with _tier("interpreted"):
            engine.apply([("+", "G", ("n5", "x0")), ("+", "G", ("x0", "x1"))])
        with _tier("codegen"):
            engine.apply([("-", "G", ("n2", "n3"))])
        scratch_base = graph_database(chain(6))
        scratch_base.add_fact("G", ("n5", "x0"))
        scratch_base.add_fact("G", ("x0", "x1"))
        scratch_base.remove_fact("G", ("n2", "n3"))
        scratch = evaluate_datalog_seminaive(program, scratch_base)
        assert engine.database.tuples("T") == scratch.answer("T")

    def test_plan_cache_clear_drops_codegen_functions(self):
        program = parse_program(TC_NONLINEAR)
        rule = program.rules[1]
        plan = plan_for(rule, (0, 1))
        db = _tc_db(4)
        db.ensure_relation("T", 2).update(db.tuples("G"))
        list(plan._run(db, (), -1, None))
        assert plan.codegen_fns is not None
        PlanCache.clear()
        fresh = plan_for(rule, (0, 1))
        assert fresh is not plan
        assert fresh.codegen_fns is None

    def test_cover_twin_never_runs_flat_index_code(self):
        program = parse_program(TC_NONLINEAR)
        rule = program.rules[1]
        plan = plan_for(rule, (0, 1))
        db = _tc_db(4)
        db.ensure_relation("T", 2).update(db.tuples("G"))
        list(plan._run(db, (), -1, None))
        assert plan.codegen_fns is not None
        step = plan.steps[1]
        assert step.key_positions and not step.exact
        assign = {
            (step.relation, frozenset(step.key_positions)): ((0, 1), 1)
        }
        twin = plan_with_cover(plan, assign)
        assert twin is not plan
        # The slot copy must not carry the base plan's functions: they
        # probe flat indexes, the twin probes chains.
        assert twin.codegen_fns is None
        twin_cg = compile_plan(twin)
        assert "probe_chain" in twin_cg.source
        assert "probe_chain" not in plan.codegen_fns.source


class TestThreeWayDifferential:
    """50 random programs: all tiers agree under every semantics."""

    @pytest.mark.parametrize("seed", range(50))
    def test_tiers_agree(self, seed):
        rng = random.Random(seed)
        text, db = random_program_and_database(rng)
        program = parse_program(text)
        engines = {
            "naive": evaluate_datalog_naive,
            "seminaive": evaluate_datalog_seminaive,
            "stratified": evaluate_stratified,
        }
        for name, engine in engines.items():
            outcomes = {}
            for tier in TIERS:
                with _tier(tier):
                    result = engine(program, db.copy())
                outcomes[tier] = (
                    {r: result.answer(r) for r in program.idb},
                    result.stats.rule_firings,
                    result.stats.stage_count,
                )
            for tier in TIERS[1:]:
                assert outcomes["columnar"] == outcomes[tier], (
                    name, tier, seed)
        # A positive program's well-founded model is its minimum model;
        # the alternating fixpoint still exercises the residual probes.
        wf = {}
        for tier in TIERS:
            with _tier(tier):
                model = evaluate_wellfounded(program, db.copy())
            wf[tier] = (model.true_facts, model.unknown_facts(),
                        model.stats.rule_firings)
        for tier in TIERS[1:]:
            assert wf["columnar"] == wf[tier], (tier, seed)


SPANNING_TREE = """
root(x) :- node(x), choice((), (x)).
intree(x) :- root(x).
tree(x, y) :- intree(x), G(x, y), not intree(y), choice((y), (x)).
intree(y) :- tree(x, y).
"""


class TestSeededReplay:
    """Seeded engines replay byte-identically under every tier.

    The choice and nondeterministic engines consume matches through a
    seeded RNG, so any divergence in *enumeration order* — not just in
    the match set — changes their output.  Identical committed choices
    and identical step sequences across tiers are therefore the
    strongest order-identity evidence available.
    """

    def _tree_db(self) -> Database:
        rng = random.Random(11)
        nodes = [f"n{i}" for i in range(8)]
        db = Database()
        for node in nodes:
            db.add_fact("node", (node,))
        for _ in range(14):
            a, b = rng.sample(nodes, 2)
            db.add_fact("G", (a, b))
        return db

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_choice_replays_identically(self, seed):
        program = parse_program(SPANNING_TREE)
        outcomes = {}
        for tier in TIERS:
            with _tier(tier):
                result = evaluate_with_choice(
                    program, self._tree_db(), seed=seed
                )
            outcomes[tier] = (
                result.answer("tree"),
                result.answer("root"),
                result.choices,
            )
        for tier in TIERS[1:]:
            assert outcomes["columnar"] == outcomes[tier], (tier, seed)

    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_nondeterministic_replays_identically(self, seed):
        program = parse_program(
            "pick(x) :- S(x), not done. done :- S(x)."
        )
        db = Database({"S": [("a",), ("b",), ("c",), ("d",)]})
        outcomes = {}
        for tier in TIERS:
            with _tier(tier):
                run = run_nondeterministic(program, db.copy(), seed=seed)
            outcomes[tier] = (
                [(s.rule_index, s.inserted, s.deleted) for s in run.steps],
                run.aborted,
                run.answer("pick"),
            )
        for tier in TIERS[1:]:
            assert outcomes["columnar"] == outcomes[tier], (tier, seed)


class TestCliMatcherFlag:
    """``repro run/stats --matcher`` and ``run --dump-codegen``."""

    @pytest.fixture
    def tc_files(self, tmp_path):
        program = tmp_path / "tc.dl"
        program.write_text(TC_NONLINEAR)
        data = tmp_path / "graph.dl"
        data.write_text("G('a', 'b').\nG('b', 'c').\nG('c', 'd').\n")
        return str(program), str(data)

    def _run(self, argv):
        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    @pytest.mark.parametrize("tier", TIERS)
    def test_stats_matcher_override(self, tc_files, tier):
        import json

        program, data = tc_files
        code, output = self._run(
            ["stats", program, "--data", data, "--semantics", "seminaive",
             "--format", "json", "--matcher", tier]
        )
        assert code == 0
        assert json.loads(output)["matcher"] == tier
        # The override is scoped to the one evaluation.
        assert PlanCache.compiled_plans and PlanCache.columnar

    def test_compiled_tier_is_rejected(self, tc_files, capsys):
        # "compiled" named the plan-interpreter rung, which is gone:
        # argparse refuses it (exit 2) before anything evaluates.
        program, data = tc_files
        with pytest.raises(SystemExit) as excinfo:
            self._run(["run", program, "--data", data,
                       "--matcher", "compiled"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'compiled'" in capsys.readouterr().err

    def test_run_matcher_override_same_answers(self, tc_files):
        program, data = tc_files
        outputs = set()
        for tier in TIERS:
            code, output = self._run(
                ["run", program, "--data", data,
                 "--semantics", "seminaive", "--matcher", tier]
            )
            assert code == 0
            outputs.add(output)
        assert len(outputs) == 1  # byte-identical printed relations

    def test_run_dump_codegen(self, tc_files, tmp_path):
        program, data = tc_files
        dump = tmp_path / "generated"
        code, _output = self._run(
            ["run", program, "--data", data, "--semantics", "seminaive",
             "--dump-codegen", str(dump)]
        )
        assert code == 0
        written = sorted(p.name for p in dump.iterdir())
        assert written
        assert all(name.endswith(".py") for name in written)
        text = (dump / written[0]).read_text()
        assert "# codegen for rule:" in text


@contextlib.contextmanager
def _recorded_compiles():
    """Record every ``(CodegenPlan, variant)`` compiled in the body.

    Wraps the ``compile_plan`` bound in :mod:`repro.semantics.plan`,
    the binding every on-demand compile goes through.
    """
    import repro.semantics.plan as plan_module

    original = plan_module.compile_plan
    compiled: list[tuple] = []

    def recording(plan, variant=None):
        if variant is not None:
            compiled.append((plan, variant))
        return original(plan, variant)

    plan_module.compile_plan = recording
    try:
        yield compiled
    finally:
        plan_module.compile_plan = original


def _salted_tc(salt: str):
    """Nonlinear TC over fresh relation names, so no structurally equal
    rule from another test shares (already compiled) plans with it."""
    program = parse_program(
        TC_NONLINEAR.replace("T", f"T{salt}").replace("G", f"G{salt}")
    )
    return program, lambda: graph_database(chain(16), relation=f"G{salt}")


def _compiled_function_text(fn) -> str:
    import linecache

    return "".join(linecache.getlines(fn.__code__.co_filename))


class TestLazyCompile:
    """Variants compile on first dispatch, once, with the dumped text."""

    def test_columnar_run_compiles_only_dispatched_variants(self):
        program, db = _salted_tc("lz1")
        with _tier("columnar"), _recorded_compiles() as compiled:
            first = evaluate_datalog_seminaive(program, db())
        kinds = {kind for _cg, (kind, _index) in compiled}
        assert compiled
        assert not any(kind.startswith("walk") for kind in kinds), kinds
        # Each variant compiles once and lands in its plan's table.
        assert len(set(compiled)) == len(compiled)
        for cg, (kind, index) in compiled:
            table = {"emit": cg._emits, "emit_batch": cg._batch_emits,
                     "group": [None, *cg._groups]}[kind]
            assert table[index + 1] is not None
        # Nowhere near every variant: the eager module was all of them.
        plans = {id(cg): cg for cg, _variant in compiled}.values()
        available = sum(len(list(cg._variants())) for cg in plans)
        assert len(compiled) < available / 2
        # A second run of the held program dispatches to cached code.
        with _tier("columnar"), _recorded_compiles() as again:
            second = evaluate_datalog_seminaive(program, db())
        assert again == []
        assert first.answer("Tlz1") == second.answer("Tlz1")

    def test_flip_to_codegen_compiles_scalar_variant_on_demand(self):
        program, db = _salted_tc("lz2")
        with _tier("columnar"), _recorded_compiles() as columnar:
            batch = evaluate_datalog_seminaive(program, db())
        # The exit rule's full pass ran only its batch kernel.
        assert ("emit_batch", -1) in {v for _cg, v in columnar}
        assert ("emit", -1) not in {v for _cg, v in columnar}
        with _tier("codegen"), _recorded_compiles() as codegen:
            scalar = evaluate_datalog_seminaive(program, db())
        assert ("emit", -1) in {v for _cg, v in codegen}
        assert not any(kind.endswith("batch") for _cg, (kind, _i) in codegen)
        assert scalar.stats.matcher == "codegen"
        assert scalar.answer("Tlz2") == batch.answer("Tlz2")
        assert scalar.stats.rule_firings == batch.stats.rule_firings

    def test_missing_batch_shape_is_cached(self):
        from repro.terms import Var

        # Bound (head-seeded) plans never batch: the first dispatch
        # learns that once, later dispatches fall back without a retry.
        program = parse_program(TC_NONLINEAR)
        plan = plan_for(program.rules[1], (0, 1), bound=(Var("x"),))
        cg = compile_plan(plan)
        with _recorded_compiles() as compiled:
            for _ in range(3):
                assert cg.run_walk_batch(_tc_db(4), (), -1, None) is None
        assert compiled == [(cg, ("walk_batch", -1))]
        assert cg._batch_walks[0] is None

    def test_lazy_function_text_matches_module_source(self):
        from repro.ast.rules import make_rule, pos
        from repro.terms import Const

        # Two hoisted (non-literal) constants exercise the shared pool:
        # compiling in reverse module order must not renumber them.
        rule = make_rule(
            pos("H", "x", "y"),
            [pos("G", "x", Const(1.5)), pos("G", "x", "y"),
             pos("G", "y", Const(2.5))],
        )
        cg = compile_plan(plan_for(rule, (0, 1, 2)))
        variants = list(cg._variants())
        kinds = {kind for kind, _index in variants}
        assert kinds == {"walk", "emit", "walk_batch", "emit_batch", "group"}
        compiled = 0
        for variant in reversed(variants):
            fn = compile_plan(cg, variant)
            if fn is None:  # no batch shape: nothing to compare
                continue
            compiled += 1
            text = _compiled_function_text(fn)
            assert text.startswith(f"def {fn.__name__}(")
            assert text in cg.source, variant
        assert compiled >= len(variants) - 2
        assert "_K0" in cg.source and "_K1" in cg.source


class TestGeneratedCodeLifetime:
    """Plans, functions and their linecache entries die with programs."""

    def test_traceback_shows_emitted_lines_while_alive(self):
        import gc
        import linecache
        import traceback

        class Exploding:
            def relation(self, name):
                raise RuntimeError(f"no relation {name}")

        program = parse_program(TC_NONLINEAR)
        cg = compile_plan(plan_for(program.rules[1], (0, 1)))
        with pytest.raises(RuntimeError) as info:
            list(cg.run(Exploding(), (), -1, None))
        text = "".join(traceback.format_exception(info.value))
        assert "<codegen-" in text
        assert "rel0 = db.relation('T')" in text
        filename = cg._walks[0].__code__.co_filename
        assert filename in linecache.cache
        del cg, info
        gc.collect()
        assert filename not in linecache.cache

    def test_salted_programs_leave_no_linecache_entries(self):
        import gc
        import linecache

        salts = [f"lc{i}" for i in range(4)]
        for salt in salts:
            program, db = _salted_tc(salt)
            evaluate_datalog_seminaive(program, db())
            assert any(salt in name for name in linecache.cache)
        del program, db
        gc.collect()
        assert not [n for n in linecache.cache if any(s in n for s in salts)]
