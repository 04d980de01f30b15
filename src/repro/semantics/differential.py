"""Differential evaluation: one incremental engine for positive views.

This module unifies the two classical view-maintenance algorithms —
DRed (:mod:`repro.semantics.maintenance`) and derivation counting
(:mod:`repro.semantics.counting`) — behind a single
:class:`DifferentialEngine`, in the spirit of differential dataflow:
a materialized minimum model that absorbs *diff batches* of base
(EDB) insertions and deletions in time proportional to the change,
and streams the induced IDB diffs to subscribers.

Strategy selection is per SCC of the predicate dependency graph,
reusing the planner's topologically-ordered schedule
(:func:`repro.semantics.planner.plan_context`):

* **nonrecursive SCC** — derivation counting.  Counting is exact
  whenever a fact cannot support itself, updates never need a
  rederivation phase, and the stored counts double as multiplicity
  provenance.
* **recursive SCC** — DRed (over-delete to a fixpoint, then restore
  survivors).  Counting is unsound under recursion (a cycle of facts
  keeps itself alive), so the component falls back to the algorithm
  that is exact there.

Components are processed in topological order; the net IDB diff of
each component joins the incoming delta of the components above it,
so one base change flows through the whole stratification exactly
once.

All bulk propagation (insertion deltas, over-deletion frontiers,
affected-fact discovery) goes through
:func:`repro.semantics.base.immediate_consequences` on a per-component
subprogram, which dispatches to the cost-based planner and the
generated plan kernels — never a hand-rolled interpreted loop —
and deltas freeze to columnar blocks so those passes take the batch
kernels.

Exact recounts and rederivation support checks are *head-bound*: the
join is seeded with one candidate fact's values, so a check costs that
fact's own derivations, not the rule's match set.  Everything else
about the check depends only on the rule, so it is paid once: each
rule gets a :class:`_HeadProbe` at construction (its head's constant
and repeated-variable checks, the positions that seed the bound
variables, its body's relations and variable sets), and each scan —
the DRed support scan, the counting recount — picks every rule's join
order and bound :class:`~repro.semantics.plan.RulePlan` once, through
:func:`~repro.semantics.plan.plan_for`.  Per fact,
:meth:`DifferentialEngine._derivation_count` checks the head, projects
the seed and runs the plan's seeded walk.  With the compiled tier off,
the interpreted oracle :func:`_iter_bound_matches` counts instead.

Storage mutations are batched the same way: deleted-fact ghosts,
over-deleted facts, rederived facts, recount results and each
propagation round's new heads reach the database grouped by relation,
through ``Relation.add_batch``/``discard_batch``, which maintain each
live index in one pass over the group.

Scope: plain (positive) Datalog, the dialect in which both component
algorithms are exact.  Updates are **atomic**: the entire diff batch
is validated (no IDB-named relations, consistent arities) before the
first fact is touched, so a bad fact in a batch can never leave the
view half-updated.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Hashable, Iterable, Iterator

from repro.errors import SchemaError
from repro.ast.analysis import validate_program
from repro.ast.program import Dialect, Program
from repro.ast.rules import Rule
from repro.relational.instance import Database
from repro.semantics.base import (
    EngineStats,
    _greedy_order,
    _iter_literal_matches,
    _order_positive,
    evaluation_adom,
    immediate_consequences,
    instantiate_head,
    iter_matches,
)
from repro.semantics.plan import (
    PlanCache,
    RulePlan,
    active_matcher,
    kernel_difference,
    make_delta,
    plan_for,
)
from repro.terms import Const

Fact = tuple[str, tuple]

COUNTING = "counting"
DRED = "dred"


@dataclass
class UpdateReport:
    """Net effect of one maintenance operation on the view."""

    inserted: frozenset[Fact] = frozenset()
    deleted: frozenset[Fact] = frozenset()
    overdeleted: int = 0  # DRed phase-1 size (before rederivation)

    def __bool__(self) -> bool:
        return bool(self.inserted or self.deleted)


@dataclass(frozen=True)
class DiffBatch:
    """One atomic batch of base changes.

    Semantics: deletions apply before insertions, so a fact named on
    both sides ends up *present*.  Inserting a present fact and
    deleting an absent one are no-ops (set semantics), never errors.
    """

    inserts: tuple[Fact, ...] = ()
    deletes: tuple[Fact, ...] = ()


@dataclass(frozen=True)
class RelationDiff:
    """The net change of one relation under one :meth:`apply`."""

    relation: str
    inserted: frozenset[tuple] = frozenset()
    deleted: frozenset[tuple] = frozenset()

    def __bool__(self) -> bool:
        return bool(self.inserted or self.deleted)


class Subscription:
    """A handle on one relation's diff stream (identity-hashed)."""

    __slots__ = ("engine", "relation", "active")

    def __init__(self, engine: "DifferentialEngine", relation: str):
        self.engine = engine
        self.relation = relation
        self.active = True

    def cancel(self) -> None:
        """Stop receiving diffs; the engine drops the handle lazily."""
        self.active = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "active" if self.active else "cancelled"
        return f"Subscription({self.relation!r}, {state})"


@dataclass
class ApplyResult:
    """What one diff batch did: the net report plus per-subscriber diffs."""

    report: UpdateReport
    diffs: dict[Subscription, RelationDiff] = field(default_factory=dict)

    def for_subscriber(self, subscription: Subscription) -> RelationDiff:
        return self.diffs.get(
            subscription, RelationDiff(subscription.relation)
        )


class _Component:
    """One SCC of the predicate dependency graph, with its strategy."""

    __slots__ = ("relations", "rules", "program", "reads", "strategy")

    def __init__(self, relations: frozenset[str], rules: tuple[Rule, ...],
                 recursive: bool, name: str):
        self.relations = relations
        self.rules = rules
        #: The component's rules as a standalone program: bulk delta
        #: propagation runs ``immediate_consequences`` on it, which
        #: dispatches through the planner (its own cached context) and
        #: the compiled kernel.
        self.program = Program(rules, name=name)
        self.reads: frozenset[str] = frozenset(
            relation for rule in rules for relation in rule.body_relations()
        )
        self.strategy = DRED if recursive else COUNTING


class _HeadProbe:
    """One rule's head, compiled once for head-bound derivation counts.

    A recount or support check asks how many body matches derive one
    given fact.  Everything about that question except the fact's
    values depends only on the rule, so it is settled here:

    * ``consts`` — ``(position, value)`` for each head constant;
    * ``repeats`` — ``(position, first position)`` for each repeated
      head variable;
    * ``bound`` — the distinct head variables sorted by name, the
      leading slots of the bound :class:`RulePlan`;
    * ``seed_positions`` — each ``bound`` variable's first head
      position, so the seed tuple is a projection of the fact;
    * ``relations`` / ``var_sets`` — the positive body literals'
      relation names and variable sets, the inputs of the join order.
    """

    __slots__ = (
        "rule", "consts", "repeats", "bound", "seed_positions",
        "relations", "var_sets",
    )

    def __init__(self, rule: Rule):
        self.rule = rule
        (head,) = rule.head_literals()
        consts: list[tuple[int, Hashable]] = []
        repeats: list[tuple[int, int]] = []
        first: dict = {}
        for position, term in enumerate(head.atom.terms):
            if isinstance(term, Const):
                consts.append((position, term.value))
            elif term in first:
                repeats.append((position, first[term]))
            else:
                first[term] = position
        self.consts = tuple(consts)
        self.repeats = tuple(repeats)
        self.bound = tuple(sorted(first, key=lambda v: v.name))
        self.seed_positions = tuple(first[v] for v in self.bound)
        positive = rule.positive_body()
        self.relations = tuple(lit.relation for lit in positive)
        self.var_sets = [lit.variables() for lit in positive]

    def seed(self, values: tuple) -> tuple | None:
        """The bound slots' values for one fact, or ``None`` when a
        head constant or a repeated head variable contradicts it."""
        for position, value in self.consts:
            if values[position] != value:
                return None
        for position, first in self.repeats:
            if values[position] != values[first]:
                return None
        return tuple([values[p] for p in self.seed_positions])

    def plan(self, db: Database) -> RulePlan:
        """The bound plan under the join order the current sizes pick
        (the greedy order of ``base._order_positive_indices``)."""
        sizes = []
        for name in self.relations:
            rel = db.relation(name)
            sizes.append(len(rel) if rel is not None else 0)
        order = tuple(_greedy_order(self.var_sets, sizes))
        return plan_for(self.rule, order, bound=self.bound)


def _iter_bound_matches(rule: Rule, db: Database, valuation: dict):
    """Body matches of ``rule`` extending a head-seeded ``valuation``.

    The interpreted oracle of the head-bound count, used when the
    compiled tier is off: each positive literal, in the greedy order,
    extends the valuation through the relation's indexes.
    Plain-Datalog scope: every body variable occurs in a positive
    literal, so the valuation is total when the last literal matches.
    Callers only count yields — one per total body valuation.  Never
    mutates the database.
    """
    ordered = _order_positive(list(rule.positive_body()), db)

    def descend(idx: int) -> Iterator[dict]:
        if idx == len(ordered):
            yield valuation
            return
        for _ in _iter_literal_matches(ordered[idx], db, valuation):
            yield from descend(idx + 1)

    return descend(0)


#: A scan's probes: head relation → each head rule's probe with the
#: bound plan chosen for the scan (``None`` on the interpreted tier).
_BoundProbes = dict[str, list[tuple[_HeadProbe, RulePlan | None]]]


def _dict_of(facts: Iterable[Fact]) -> dict[str, set[tuple]]:
    out: dict[str, set[tuple]] = {}
    for relation, t in facts:
        out.setdefault(relation, set()).add(t)
    return out


def _by_relation(facts: Iterable[Fact]) -> dict[str, list[tuple]]:
    """Group facts by relation, keeping their order within each group."""
    out: dict[str, list[tuple]] = {}
    for relation, t in facts:
        group = out.get(relation)
        if group is None:
            out[relation] = [t]
        else:
            group.append(t)
    return out


def _add_groups(db: Database, groups: dict) -> dict[str, set[tuple]]:
    """Insert each relation's tuples with one ``Relation.add_batch``.

    Returns the genuinely new tuples per relation — the next delta of
    a propagation loop.  Within a relation, insertion (and so bucket)
    order follows the group's order.
    """
    delta: dict[str, set[tuple]] = {}
    for relation, ts in groups.items():
        if ts:
            rel = db.ensure_relation(relation, len(next(iter(ts))))
            fresh = rel.add_batch(ts)
            if fresh:
                delta[relation] = set(fresh)
    return delta


def _discard_groups(db: Database, groups: dict) -> None:
    """Remove each relation's tuples with one ``Relation.discard_batch``."""
    for relation, ts in groups.items():
        rel = db.relation(relation)
        if rel is not None and ts:
            rel.discard_batch(ts)


def _frozen(delta: dict[str, set[tuple]]) -> dict:
    """Freeze a delta for propagation — delta *blocks* when the full
    matcher stack is on, so bulk passes take the batch kernels."""
    return {rel: make_delta(ts) for rel, ts in delta.items() if ts}


class DifferentialEngine:
    """An incrementally-maintained minimum model with subscriptions.

    ``engine.database`` always equals
    ``evaluate_datalog_seminaive(program, base)`` for the current base;
    :meth:`apply` moves it from one base to another in time
    proportional to the induced change.
    """

    def __init__(self, program: Program, base: Database):
        validate_program(program, Dialect.DATALOG)
        self.program = program
        for relation in sorted(program.idb):
            if base.tuples(relation):
                raise SchemaError(
                    f"base database contains facts in derived relation "
                    f"{relation!r}; a maintained view must own its IDB "
                    f"(materialize from an EDB-only base instead)"
                )
        self.database = base.copy()
        for relation in program.idb:
            self.database.ensure_relation(relation, program.arity(relation))
        #: Exact derivation counts for facts of counting components
        #: (DRed components keep no counts).
        self.counts: Counter[Fact] = Counter()
        #: Head relation → one :class:`_HeadProbe` per rule.
        self._probes: dict[str, list[_HeadProbe]] = {}
        for rule in program.rules:
            for relation in rule.head_relations():
                self._probes.setdefault(relation, []).append(
                    _HeadProbe(rule)
                )
        self._components = self._build_components()
        self._subscriptions: list[Subscription] = []
        self.stats = EngineStats(
            engine="differential",
            matcher=active_matcher(),
        )
        self.stats.differential = {
            "components": [
                {
                    "relations": sorted(comp.relations),
                    "strategy": comp.strategy,
                    "rules": len(comp.rules),
                }
                for comp in self._components
            ],
            "updates": 0,
            "facts_touched": 0,
            "last_facts_touched": 0,
            "view_size": 0,
            "overdeleted": 0,
            "rederived": 0,
            "recounted": 0,
            "support_checks": 0,
        }
        started = perf_counter()
        self._materialize()
        self.stats.seconds += perf_counter() - started
        self.stats.differential["view_size"] = self._view_size()

    # -- construction -------------------------------------------------------

    def _build_components(self) -> list[_Component]:
        """The planner's SCC schedule, lifted to component subprograms."""
        from repro.semantics import planner as _planner

        schedule = _planner.plan_context(self.program).schedule
        name = self.program.name or "program"
        if schedule is None:  # pragma: no cover - positive Datalog is
            # always schedulable; kept so an exotic caller degrades to
            # whole-program DRed instead of crashing.
            return [
                _Component(
                    frozenset(self.program.idb),
                    self.program.rules,
                    recursive=True,
                    name=f"{name}#all",
                )
            ]
        return [
            _Component(
                comp.relations,
                tuple(self.program.rules[i] for i in comp.rule_ids),
                comp.recursive,
                name=f"{name}#scc{position}",
            )
            for position, comp in enumerate(schedule)
        ]

    def _materialize(self) -> None:
        """Initial evaluation, component by component in topo order."""
        adom = evaluation_adom(self.program, self.database)
        self.stats.adom_size = len(adom)
        for comp in self._components:
            if comp.strategy == COUNTING:
                additions: list[Fact] = []
                for rule in comp.rules:
                    for valuation in iter_matches(rule, self.database, adom):
                        for relation, t, _ in instantiate_head(rule, valuation):
                            self.counts[(relation, t)] += 1
                            additions.append((relation, t))
                # Buffered: the head relation is never read by a
                # nonrecursive component's bodies, but we still never
                # mutate while a match generator is live.
                _add_groups(self.database, _by_relation(additions))
            else:
                # Add-only fixpoint: the batch kernels may subtract
                # already-present heads before emitting.
                with kernel_difference():
                    heads, _neg, _firings = immediate_consequences(
                        comp.program, self.database, adom, stats=self.stats
                    )
                    delta = _add_groups(self.database, _by_relation(heads))
                    while delta:
                        heads, _neg, _firings = immediate_consequences(
                            comp.program, self.database, adom,
                            delta=_frozen(delta), stats=self.stats,
                        )
                        delta = _add_groups(
                            self.database, _by_relation(heads)
                        )

    # -- public API ---------------------------------------------------------

    def answer(self, relation: str) -> frozenset[tuple]:
        return self.database.tuples(relation)

    def subscribe(self, relation: str) -> Subscription:
        """A diff-stream handle for one relation (typically IDB)."""
        if relation not in self.program.sch():
            raise SchemaError(
                f"cannot subscribe to unknown relation {relation!r}"
            )
        subscription = Subscription(self, relation)
        self._subscriptions.append(subscription)
        return subscription

    def insert(self, facts: Iterable[Fact]) -> ApplyResult:
        """Insert base facts (an insert-only :meth:`apply`)."""
        return self.apply(DiffBatch(inserts=tuple(facts)))

    def delete(self, facts: Iterable[Fact]) -> ApplyResult:
        """Delete base facts (a delete-only :meth:`apply`)."""
        return self.apply(DiffBatch(deletes=tuple(facts)))

    def apply(self, batch) -> ApplyResult:
        """Apply one atomic diff batch; returns net + per-subscriber diffs.

        ``batch`` is a :class:`DiffBatch` or an iterable of
        ``("+" | "-", relation, values)`` triples.  The whole batch is
        validated before the first fact is applied.
        """
        started = perf_counter()
        inserts, deletes = _normalize_batch(batch)
        self._validate_batch(inserts, deletes)

        base_deleted: set[Fact] = set()
        base_inserted: set[Fact] = set()
        for relation, t in deletes:
            if self.database.remove_fact(relation, t):
                base_deleted.add((relation, t))
        for relation, t in inserts:
            if self.database.add_fact(relation, t):
                if (relation, t) in base_deleted:
                    base_deleted.discard((relation, t))  # net no-op
                else:
                    base_inserted.add((relation, t))

        inserted = _dict_of(base_inserted)
        deleted = _dict_of(base_deleted)
        overdeleted_total = rederived_total = recounted_total = 0
        if base_inserted or base_deleted:
            adom = evaluation_adom(self.program, self.database)
            self.stats.adom_size = len(adom)
            for comp in self._components:
                ins_in = {
                    rel: ts for rel, ts in inserted.items()
                    if rel in comp.reads and ts
                }
                del_in = {
                    rel: ts for rel, ts in deleted.items()
                    if rel in comp.reads and ts
                }
                if not ins_in and not del_in:
                    continue
                if comp.strategy == COUNTING:
                    comp_ins, comp_del, recounted = self._counting_update(
                        comp, adom, ins_in, del_in
                    )
                    recounted_total += recounted
                else:
                    comp_del, overdeleted, rederived = self._dred_delete(
                        comp, adom, del_in
                    )
                    comp_ins = self._dred_insert(comp, adom, ins_in)
                    overdeleted_total += overdeleted
                    rederived_total += rederived
                    cancelled = comp_del & comp_ins
                    comp_del -= cancelled
                    comp_ins -= cancelled
                for relation, t in comp_ins:
                    inserted.setdefault(relation, set()).add(t)
                for relation, t in comp_del:
                    deleted.setdefault(relation, set()).add(t)

        report = UpdateReport(
            inserted=frozenset(
                (rel, t) for rel, ts in inserted.items() for t in ts
            ),
            deleted=frozenset(
                (rel, t) for rel, ts in deleted.items() for t in ts
            ),
            overdeleted=overdeleted_total,
        )
        self._subscriptions = [s for s in self._subscriptions if s.active]
        diffs = {
            subscription: RelationDiff(
                subscription.relation,
                inserted=frozenset(inserted.get(subscription.relation, ())),
                deleted=frozenset(deleted.get(subscription.relation, ())),
            )
            for subscription in self._subscriptions
        }

        touched = (
            len(report.inserted) + len(report.deleted)
            + overdeleted_total + rederived_total + recounted_total
        )
        counters = self.stats.differential
        counters["updates"] += 1
        counters["facts_touched"] += touched
        counters["last_facts_touched"] = touched
        counters["view_size"] = self._view_size()
        counters["overdeleted"] += overdeleted_total
        counters["rederived"] += rederived_total
        counters["recounted"] += recounted_total
        self.stats.seconds += perf_counter() - started
        return ApplyResult(report=report, diffs=diffs)

    def consistent_with_scratch(self) -> bool:
        """Does the view equal from-scratch evaluation?  (For tests.)"""
        from repro.semantics.seminaive import evaluate_datalog_seminaive

        base = self.database.restrict(
            [
                rel for rel in self.database.relation_names()
                if rel not in self.program.idb
            ]
        )
        scratch = evaluate_datalog_seminaive(self.program, base)
        return all(
            self.answer(relation) == scratch.answer(relation)
            for relation in self.program.idb
        )

    def strategy_of(self, relation: str) -> str | None:
        """``"counting"``, ``"dred"``, or ``None`` for EDB relations."""
        for comp in self._components:
            if relation in comp.relations:
                return comp.strategy
        return None

    # -- batch validation ---------------------------------------------------

    def _validate_batch(
        self, inserts: list[Fact], deletes: list[Fact]
    ) -> None:
        """Whole-batch validation before any mutation (atomicity)."""
        arities: dict[str, int] = {}
        for relation, t in itertools.chain(deletes, inserts):
            if relation in self.program.idb:
                raise SchemaError(
                    f"{relation!r} is a derived relation; "
                    f"update the base instead"
                )
            expected = arities.get(relation)
            if expected is None:
                rel = self.database.relation(relation)
                if rel is not None:
                    expected = rel.arity
                elif relation in self.program.sch():
                    expected = self.program.arity(relation)
                else:
                    expected = len(t)
                arities[relation] = expected
            if len(t) != expected:
                raise SchemaError(
                    f"fact {relation}{t!r} has arity {len(t)}; "
                    f"{relation!r} has arity {expected}"
                )

    # -- counting components ------------------------------------------------

    def _counting_update(
        self,
        comp: _Component,
        adom: tuple[Hashable, ...],
        ins_in: dict[str, set[tuple]],
        del_in: dict[str, set[tuple]],
    ) -> tuple[set[Fact], set[Fact], int]:
        """Discover affected facts via one delta pass, recount exactly.

        Discovery matches against the *union* instance (post-state plus
        deleted "ghosts"), which contains both the pre- and post-state,
        so every derivation gained or lost shows up.  The
        over-approximation is harmless: the per-fact recount against
        the final state is exact.
        """
        _add_groups(self.database, del_in)  # ghosts
        delta: dict[str, set[tuple]] = {}
        for source in (ins_in, del_in):
            for relation, ts in source.items():
                delta.setdefault(relation, set()).update(ts)
        # Affected discovery reads consequences as "everything
        # derivable" — most of it is already in the database — so it
        # stays outside ``kernel_difference``.
        affected, _neg, _firings = immediate_consequences(
            comp.program, self.database, adom,
            delta=_frozen(delta), stats=self.stats,
        )
        _discard_groups(self.database, del_in)

        # A nonrecursive component's bodies never read its own head
        # relation, and the adds and removes wait until the scan ends,
        # so one plan choice serves every recount.
        probes = self._bind_probes(comp.relations)
        added: list[Fact] = []
        removed: list[Fact] = []
        for fact in sorted(affected, key=repr):
            old = self.counts.get(fact, 0)
            new = self._derivation_count(fact, probes=probes)
            if new != old:
                if old == 0:
                    added.append(fact)
                elif new == 0:
                    removed.append(fact)
            if new:
                self.counts[fact] = new
            else:
                self.counts.pop(fact, None)
        _discard_groups(self.database, _by_relation(removed))
        _add_groups(self.database, _by_relation(added))
        return set(added), set(removed), len(affected)

    def _bind_probes(self, relations: Iterable[str]) -> _BoundProbes:
        """Each head rule's probe with its bound plan, decided once.

        A scan (the DRed support scan, the recount loop) calls this
        before its first fact: the join order depends only on relation
        sizes, and no relation a scan's bodies read changes during it,
        so one :func:`plan_for` lookup per rule serves every fact.  The
        plans are not kept past the scan, so a cleared plan cache never
        leaves a stale plan here.  The interpreted tier gets ``None``
        and runs the :func:`_iter_bound_matches` oracle instead.
        """
        db = self.database
        compiled = PlanCache.compiled_plans
        return {
            relation: [
                (probe, probe.plan(db) if compiled else None)
                for probe in self._probes.get(relation, ())
            ]
            for relation in relations
        }

    def _derivation_count(
        self,
        fact: Fact,
        limit: int | None = None,
        probes: _BoundProbes | None = None,
    ) -> int:
        """Exact derivation count of one fact against the current view.

        Head-bound matching: the join is seeded with the fact's own
        values, so the cost is this fact's derivations, not the rule's
        full match set.  ``limit`` turns the count into an existence
        check (rederivation support).  ``probes`` is the calling scan's
        :meth:`_bind_probes`; without it the fact's head rules are
        bound for this one call.
        """
        self.stats.differential["support_checks"] += 1
        relation, values = fact
        if probes is None:
            probes = self._bind_probes((relation,))
        db = self.database
        total = 0
        for probe, plan in probes.get(relation, ()):
            seed = probe.seed(values)
            if seed is None:
                continue
            if plan is not None:
                matches = plan.iter_seeded(db, (), seed)
            else:
                matches = _iter_bound_matches(
                    probe.rule, db, dict(zip(probe.bound, seed))
                )
            for _ in matches:
                total += 1
                if limit is not None and total >= limit:
                    return total
        return total

    # -- DRed components ----------------------------------------------------

    def _dred_delete(
        self,
        comp: _Component,
        adom: tuple[Hashable, ...],
        del_in: dict[str, set[tuple]],
    ) -> tuple[set[Fact], int, int]:
        """DRed for one recursive component.

        Phase 1 (over-delete): the deleted input facts come back as
        ghosts so rule bodies can match through them; every component
        fact with a derivation touching the frontier joins the
        over-deletion, to a fixpoint, then ghosts and over-deleted
        facts leave the database together.

        Phase 2 (delta-restricted rederive): each over-deleted
        candidate gets a head-bound support check against the
        surviving view; the survivors are buffered, re-added *after*
        the scan, and then propagated semi-naively — but only into the
        candidate set.  Work is proportional to the over-deletion, not
        the view.
        """
        if not del_in:
            return set(), 0, 0
        db = self.database
        _add_groups(db, del_in)  # ghosts
        overdeleted: set[Fact] = set()
        frontier: dict[str, set[tuple]] = {
            rel: set(ts) for rel, ts in del_in.items()
        }
        while frontier:
            # The frontier wants heads that ARE in the database (the
            # candidates to over-delete) — full consequence sets, so
            # no ``kernel_difference`` here either.
            heads, _neg, _firings = immediate_consequences(
                comp.program, db, adom,
                delta=_frozen(frontier), stats=self.stats,
            )
            frontier = {}
            for fact in heads:
                if fact in overdeleted:
                    continue
                relation, t = fact
                if db.has_fact(relation, t):
                    overdeleted.add(fact)
                    frontier.setdefault(relation, set()).add(t)
        _discard_groups(db, del_in)
        _discard_groups(db, _by_relation(overdeleted))

        probes = self._bind_probes(comp.relations)
        supported = [
            fact
            for fact in sorted(overdeleted, key=repr)
            if self._derivation_count(fact, limit=1, probes=probes)
        ]
        rederived: set[Fact] = set(supported)
        delta = _add_groups(db, _by_relation(supported))
        # Every head this loop can act on is an over-deleted fact not
        # yet re-added — never currently in the database — so the
        # in-kernel difference cannot hide one.
        with kernel_difference():
            while delta:
                heads, _neg, _firings = immediate_consequences(
                    comp.program, db, adom,
                    delta=_frozen(delta), stats=self.stats,
                )
                restored = [
                    fact for fact in heads
                    if fact in overdeleted and fact not in rederived
                ]
                rederived.update(restored)
                delta = _add_groups(db, _by_relation(restored))
        return overdeleted - rederived, len(overdeleted), len(rederived)

    def _dred_insert(
        self,
        comp: _Component,
        adom: tuple[Hashable, ...],
        ins_in: dict[str, set[tuple]],
    ) -> set[Fact]:
        """Semi-naive insertion propagation within one component."""
        if not ins_in:
            return set()
        db = self.database
        added: set[Fact] = set()
        delta: dict[str, set[tuple]] = {
            rel: set(ts) for rel, ts in ins_in.items()
        }
        # Add-only: already-present heads are no-ops here, so the
        # kernels may subtract them at the source.
        with kernel_difference():
            while delta:
                heads, _neg, _firings = immediate_consequences(
                    comp.program, db, adom,
                    delta=_frozen(delta), stats=self.stats,
                )
                delta = _add_groups(db, _by_relation(heads))
                added.update(
                    (rel, t) for rel, ts in delta.items() for t in ts
                )
        return added

    # -- misc ---------------------------------------------------------------

    def _view_size(self) -> int:
        return sum(
            len(self.database.relation(rel) or ())
            for rel in self.database.relation_names()
        )


def _normalize_batch(batch) -> tuple[list[Fact], list[Fact]]:
    """Coerce a DiffBatch or signed-triple iterable to fact lists."""
    if isinstance(batch, DiffBatch):
        return (
            [(relation, tuple(t)) for relation, t in batch.inserts],
            [(relation, tuple(t)) for relation, t in batch.deletes],
        )
    inserts: list[Fact] = []
    deletes: list[Fact] = []
    for op in batch:
        try:
            sign, relation, t = op
        except (TypeError, ValueError):
            raise SchemaError(
                f"diff entry {op!r} is not a (sign, relation, values) triple"
            ) from None
        if sign in ("+", "insert", 1):
            inserts.append((relation, tuple(t)))
        elif sign in ("-", "delete", -1):
            deletes.append((relation, tuple(t)))
        else:
            raise SchemaError(f"unknown diff sign {sign!r}")
    return inserts, deletes
