"""Seeded inputs, timed operations and answer checks for each workload.

A workload object is built from a seed; that is input generation and is
never timed.  ``setup()`` does the one-time work a user pays before the
first answer (part of ``setup_s``).  The closed loop then asks for
operation ``i`` with ``make_op(i)`` (untimed: builds the inputs),
times ``run(op)`` from input to decoded answer, and afterwards calls
``check(op, result)`` against an independent reference (untimed) and
``counters(op, result)`` for the per-layer counts the program exposes.

Every call into ``repro`` goes through a module or class attribute
looked up at call time, so the traced run's wrappers (``trace.py``)
see it.  Why each workload exists is recorded in ``README.md``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import repro.parser as _parser
import repro.ast.analysis as _analysis
import repro.semantics.differential as _differential
import repro.semantics.seminaive as _seminaive
import repro.semantics.stratified as _stratified
import repro.semantics.wellfounded as _wellfounded
from repro.ast.program import Dialect
from repro.programs.tc import (
    reference_complement_tc,
    reference_transitive_closure,
)
from repro.relational.instance import Database
from repro.workloads.games import solve_game_reference

#: Input sizes, recorded with every result.  Changing one changes the
#: benchmark: later runs are then not comparable with earlier ones.
SIZES = {
    "cold_programs": {
        "families": ["chain", "tc_nonlinear", "ctc", "win"],
        "chain_components": [8, 16],
        "chain_length": [5, 8],
        "tc_nodes": 30,
        "tc_degree": 2.0,
        "ctc_nodes": 20,
        "ctc_degree": 1.5,
        "win_states": 30,
        "win_degree": 2.0,
    },
    "warm_closure": {"nodes": 60, "degree": 3.0},
    "warm_components": {"components": 60, "length": 16, "shortcuts": 3},
    "update_stream": {
        "small_scc_sizes": [2, 3, 4],
        "big_scc_size": 24,
        "check_stride": 16,
    },
}

TC_NONLINEAR = """
T(x, y) :- G(x, y).
T(x, z) :- T(x, y), T(y, z).
"""

#: ``Back`` is nonrecursive over ``T``, so the differential engine
#: maintains it by counting while it maintains ``T`` with DRed.
UPDATE_PROGRAM = TC_NONLINEAR + "Back(x, y) :- T(x, z), G(y, z).\n"

#: Engine per dialect, as ``repro run --semantics auto`` picks it.
_ENGINES = {
    Dialect.DATALOG: (_seminaive, "evaluate_datalog_seminaive"),
    Dialect.STRATIFIED: (_stratified, "evaluate_stratified"),
    Dialect.DATALOG_NEG: (_wellfounded, "evaluate_wellfounded"),
}


@dataclass
class Op:
    """One operation of the closed loop, with its generated inputs."""

    index: int
    kind: str
    #: Program source text (cold) or one base fact (update).
    payload: object
    database: Database | None = None
    #: Reference answer: relation → rows; ``None`` where not checked.
    expected: dict | None = None
    rules: int = 0


@dataclass
class Result:
    """A decoded answer: relation → rows, the row count, the run stats."""

    answer: dict
    facts: int
    stats: object


def _rng(seed: int, *key) -> random.Random:
    """A generator for one input, independent of the loop's length."""
    return random.Random(repr((seed,) + key))


def _digraph(rng: random.Random, n: int, degree: float, prefix: str = "v"):
    """A directed graph with exactly ``degree * n`` random edges.

    A fixed edge count, rather than G(n, p)'s binomial one, keeps the
    closure's size, and so the work per input, from varying as much.
    """
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    return sorted(
        (f"{prefix}{i}", f"{prefix}{j}")
        for i, j in rng.sample(pairs, round(degree * n))
    )


def _chain_rules(k: int, length: int, suffix: str = "") -> list[str]:
    """K gated linear-TC components: ``Ti`` waits for ``T(i-1)``'s end."""
    lines = []
    for c in range(k):
        t, e = f"T{c}{suffix}", f"E{c}{suffix}"
        gate = (f", T{c - 1}{suffix}('c{c - 1}_0', 'c{c - 1}_{length - 1}')"
                if c else "")
        lines.append(f"{t}(x, y) :- {e}(x, y){gate}.")
        lines.append(f"{t}(x, z) :- {t}(x, y), {e}(y, z).")
    return lines


def _chain_data(rng, k: int, length: int, shortcuts: int, suffix: str = ""):
    """Each component's chain plus random forward shortcuts, and closures."""
    data, expected = {}, {}
    for c in range(k):
        nodes = [f"c{c}_{j}" for j in range(length)]
        edges = [(nodes[j], nodes[j + 1]) for j in range(length - 1)]
        for _ in range(shortcuts):
            a = rng.randrange(length - 2)
            edges.append((nodes[a], nodes[rng.randrange(a + 2, length)]))
        data[f"E{c}{suffix}"] = edges
        expected[f"T{c}{suffix}"] = reference_transitive_closure(edges)
    return data, expected


def evaluate(program, db):
    """Evaluate under the semantics the program's dialect needs."""
    module, name = _ENGINES[_analysis.infer_dialect(program)]
    return getattr(module, name)(program, db)


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.sizes = SIZES[self.name]

    def setup(self) -> None:
        """One-time work before the first operation (timed as set-up)."""

    def make_op(self, i: int) -> Op:
        raise NotImplementedError

    def run(self, op: Op) -> Result:
        raise NotImplementedError

    def check(self, op: Op, result: Result) -> bool | None:
        """Compare with the reference; ``None`` when not checked."""
        if op.expected is None:
            return None
        return result.answer == op.expected

    def final_check(self) -> bool | None:
        return None

    def counters(self, op: Op, result: Result) -> dict:
        """Per-operation counts from the evaluation's ``EngineStats``."""
        stats = result.stats
        return {
            "rules": op.rules,
            "semantics.stages": len(stats.stages),
            "semantics.firings": stats.rule_firings,
            "semantics.added": sum(stage.added for stage in stats.stages),
            "relational.index_builds": stats.index_builds,
            "relational.index_updates": stats.index_updates,
            "relational.index_drops": stats.index_drops,
        }


# -- cold_programs ----------------------------------------------------------


class ColdPrograms(Workload):
    """A stream of new programs, each parsed and evaluated once."""

    name = "cold_programs"

    def make_op(self, i: int) -> Op:
        families = self.sizes["families"]
        kind = families[i % len(families)]
        rng = _rng(self.seed, self.name, i)
        # Salting every predicate per operation keeps plan, planner and
        # codegen caches from ever hitting, as for a fresh program.
        salt = f"s{self.seed}o{i}"
        # The chain's component count steps through its whole range in
        # turn, so every run sees the same mix of program sizes.
        low, high = self.sizes["chain_components"]
        k = low + (i // len(families)) % (high - low + 1)
        length = rng.randint(*self.sizes["chain_length"])
        lines = _chain_rules(k, length, f"_{salt}")
        data, expected = _chain_data(rng, k, length, 1, f"_{salt}")
        if kind != "chain":
            getattr(self, f"_{kind}")(rng, salt, lines, data, expected)
        return Op(i, kind, "\n".join(lines) + "\n", Database(data), expected,
                  rules=len(lines))

    def _tc_nonlinear(self, rng, salt, lines, data, expected) -> None:
        edges = _digraph(rng, self.sizes["tc_nodes"], self.sizes["tc_degree"])
        t, g = f"T_{salt}", f"G_{salt}"
        lines.append(f"{t}(x, y) :- {g}(x, y).")
        lines.append(f"{t}(x, z) :- {t}(x, y), {t}(y, z).")
        data[g] = edges
        expected[t] = reference_transitive_closure(edges)

    def _ctc(self, rng, salt, lines, data, expected) -> None:
        edges = _digraph(rng, self.sizes["ctc_nodes"],
                         self.sizes["ctc_degree"])
        t, g, n, ct = (f"{r}_{salt}" for r in ("T", "G", "N", "CT"))
        # The complement ranges over this graph's nodes only, not over
        # the whole program's active domain, which the chain inflates.
        lines.append(f"{t}(x, y) :- {g}(x, y).")
        lines.append(f"{t}(x, y) :- {g}(x, z), {t}(z, y).")
        lines.append(f"{ct}(x, y) :- {n}(x), {n}(y), not {t}(x, y).")
        data[g] = edges
        data[n] = sorted({(v,) for edge in edges for v in edge})
        expected[t] = reference_transitive_closure(edges)
        expected[ct] = reference_complement_tc(edges)

    def _win(self, rng, salt, lines, data, expected) -> None:
        moves = _digraph(rng, self.sizes["win_states"],
                         self.sizes["win_degree"], prefix="s")
        win, m = f"win_{salt}", f"moves_{salt}"
        winning, _losing, drawn = solve_game_reference(moves)
        # Under the well-founded semantics every relation is decoded
        # with its unknowns; the chain's are none.
        for relation in list(expected):
            expected[f"{relation}?"] = frozenset()
        lines.append(f"{win}(x) :- {m}(x, y), not {win}(y).")
        data[m] = moves
        expected[win] = frozenset((s,) for s in winning)
        expected[f"{win}?"] = frozenset((s,) for s in drawn)

    def run(self, op: Op) -> Result:
        program = _parser.parse_program(op.payload)
        result = evaluate(program, op.database)
        answer = {relation: result.answer(relation)
                  for relation in sorted(program.idb)}
        if op.kind == "win":
            # The well-founded model's third truth value.
            for relation in program.idb:
                answer[f"{relation}?"] = result.unknowns(relation)
        return Result(answer, sum(map(len, answer.values())), result.stats)


# -- warm workloads -----------------------------------------------------------


class _Warm(Workload):
    """One held program, evaluated over a stream of seeded inputs."""

    source = ""

    def setup(self) -> None:
        self.program = _parser.parse_program(self.source)
        # The warm-up evaluation compiles the plans the loop reuses.
        warm = self.make_op(-1)
        if not self.check(warm, self.run(warm)):
            raise AssertionError(f"{self.name}: wrong warm-up answer")

    def run(self, op: Op) -> Result:
        result = _seminaive.evaluate_datalog_seminaive(self.program,
                                                       op.database)
        answer = {relation: result.answer(relation)
                  for relation in self.relations}
        return Result(answer, sum(map(len, answer.values())), result.stats)


class WarmClosure(_Warm):
    name = "warm_closure"
    source = TC_NONLINEAR
    relations = ("T",)

    def make_op(self, i: int) -> Op:
        edges = _digraph(_rng(self.seed, self.name, i), self.sizes["nodes"],
                         self.sizes["degree"])
        return Op(i, "query", None, Database({"G": edges}),
                  {"T": reference_transitive_closure(edges)}, rules=2)


class WarmComponents(_Warm):
    name = "warm_components"

    def __init__(self, seed: int):
        super().__init__(seed)
        k, length = self.sizes["components"], self.sizes["length"]
        self.source = "\n".join(_chain_rules(k, length)) + "\n"
        self.relations = tuple(f"T{c}" for c in range(k))

    def make_op(self, i: int) -> Op:
        k, length = self.sizes["components"], self.sizes["length"]
        data, expected = _chain_data(_rng(self.seed, self.name, i), k, length,
                                     self.sizes["shortcuts"])
        return Op(i, "query", None, Database(data), expected, rules=2 * k)


# -- update_stream ------------------------------------------------------------


class UpdateStream(Workload):
    """Single-fact inserts and deletes against one differential engine.

    The stream comes in pairs that restore the base graph: a present
    edge is deleted then re-inserted, or a candidate edge is inserted
    then deleted.  Every pair thus starts from the same graph, so the
    latency distribution does not drift with how far a run gets.
    """

    name = "update_stream"

    def __init__(self, seed: int):
        super().__init__(seed)
        sizes = self.sizes
        # A fixed graph: a chain of cycles, the large one in the middle,
        # each entered at its first node and left from its middle one.
        # The seed picks the update stream; with the graph fixed, a
        # run's cost does not hinge on where one seed put its links.
        small = list(sizes["small_scc_sizes"])
        self.sccs, edges, k = [], set(), 0
        for m in small + [sizes["big_scc_size"]] + small[::-1]:
            nodes = [f"u{k + j}" for j in range(m)]
            k += m
            self.sccs.append(nodes)
            edges.update((nodes[j], nodes[(j + 1) % m]) for j in range(m))
        for a in range(len(self.sccs) - 1):
            here = self.sccs[a]
            edges.add((here[len(here) // 2], self.sccs[a + 1][0]))
        big = self.sccs[len(small)]
        self.big_cycle = sorted(
            (big[j], big[(j + 1) % len(big)]) for j in range(len(big)))
        self.base_edges = sorted(edges)
        self.other_edges = sorted(edges - set(self.big_cycle))
        # Cut edges are taken in a seeded order that visits each edge
        # once before any repeats, so every run samples them evenly.
        rng = _rng(seed, self.name, "order")
        rng.shuffle(self.big_cycle)
        rng.shuffle(self.other_edges)
        self.edges = set(edges)
        self._pair = self._checked_view = None

    def _candidate(self, rng) -> tuple:
        """A random absent edge that keeps the SCCs acyclically linked."""
        while True:
            a = rng.randrange(len(self.sccs))
            b = rng.randrange(a, len(self.sccs))
            edge = (rng.choice(self.sccs[a]), rng.choice(self.sccs[b]))
            if edge[0] != edge[1] and edge not in self.edges:
                return edge

    def setup(self) -> None:
        program = _parser.parse_program(UPDATE_PROGRAM)
        self.engine = _differential.DifferentialEngine(
            program, Database({"G": self.base_edges}))
        self.subscriptions = [self.engine.subscribe(relation)
                              for relation in ("T", "Back")]
        self._last = self._snapshot()

    def make_op(self, i: int) -> Op:
        if i % 2 == 0:
            # Pair kinds rotate, so each run has the same mix: cut and
            # restore the large cycle (half the pairs), cut and restore
            # another edge, add and remove a candidate edge.
            pair = i // 2
            kind = pair % 4
            if kind % 2 == 0:
                cut = self.big_cycle[(pair // 2) % len(self.big_cycle)]
                self._pair = ("delete", "insert", cut)
            elif kind == 1:
                cut = self.other_edges[(pair // 4) % len(self.other_edges)]
                self._pair = ("delete", "insert", cut)
            else:
                rng = _rng(self.seed, self.name, i)
                self._pair = ("insert", "delete", self._candidate(rng))
        first, second, edge = self._pair
        kind = first if i % 2 == 0 else second
        checked = i % self.sizes["check_stride"] == 0
        before = self._expected() if checked else None
        if kind == "insert":
            self.edges.add(edge)
        else:
            self.edges.discard(edge)
        expected = None
        if checked:
            # The subscriber diffs are checked, and the whole view.
            self._checked_view = after = self._expected()
            expected = {relation: (after[relation] - before[relation],
                                   before[relation] - after[relation])
                        for relation in after}
        return Op(i, kind, ("G", edge), expected=expected, rules=3)

    def run(self, op: Op) -> Result:
        batch = (_differential.DiffBatch(inserts=(op.payload,))
                 if op.kind == "insert"
                 else _differential.DiffBatch(deletes=(op.payload,)))
        applied = self.engine.apply(batch)
        diffs = {}
        for subscription in self.subscriptions:
            diff = applied.for_subscriber(subscription)
            diffs[subscription.relation] = (diff.inserted, diff.deleted)
        facts = sum(len(ins) + len(dels) for ins, dels in diffs.values())
        return Result(diffs, facts, self.engine.stats)

    def _expected(self) -> dict:
        closure = reference_transitive_closure(sorted(self.edges))
        into: dict = {}
        for y, z in self.edges:
            into.setdefault(z, []).append(y)
        back = frozenset(
            (x, y) for x, z in closure for y in into.get(z, ()))
        return {"T": closure, "Back": back}

    def _view(self) -> dict:
        return {r: self.engine.answer(r) for r in ("T", "Back")}

    def check(self, op: Op, result: Result) -> bool | None:
        if op.expected is None:
            return None
        return (result.answer == op.expected
                and self._view() == self._checked_view)

    def final_check(self) -> bool:
        return self._view() == self._expected()

    def _snapshot(self) -> dict:
        snap = dict(self.engine.stats.differential)
        del snap["components"]
        builds, updates, drops = self.engine.database.index_totals()
        snap.update(index_builds=builds, index_updates=updates,
                    index_drops=drops)
        return snap

    def counters(self, op: Op, result: Result) -> dict:
        now = self._snapshot()
        last, self._last = self._last, now
        out = {"rules": op.rules, f"update.{op.kind}": 1}
        for key in ("facts_touched", "overdeleted", "rederived",
                    "recounted", "support_checks"):
            out[f"differential.{key}"] = now[key] - last[key]
        out["differential.view_size"] = now["view_size"]
        for key in ("index_builds", "index_updates", "index_drops"):
            out[f"relational.{key}"] = now[key] - last[key]
        return out


WORKLOADS = {
    cls.name: cls
    for cls in (ColdPrograms, WarmClosure, WarmComponents, UpdateStream)
}
