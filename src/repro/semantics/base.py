"""Shared evaluation machinery: rule matching and immediate consequences.

Every engine in the family reduces to the same primitive, spelled out
in §4.1 of the paper: enumerate the *instantiations* of a rule with
respect to the current instance — valuations of the rule's variables
into adom(P, K) making every positive body literal a fact of K, every
negative literal a non-fact, and every (in)equality literal true.

:func:`iter_matches` implements this with a backtracking join over the
positive literals (driven by per-relation hash indexes), followed by
equality propagation, active-domain enumeration of any variables bound
by no positive literal, and final checks of negative and inequality
literals.  Variables occurring *only* in negative literals range over
the full active domain, exactly as the paper's semantics prescribes
(this is what makes ``CT(x,y) ← ¬T(x,y)`` meaningful).

Three matcher tiers produce those instantiations:

* the **columnar** tier (the default) — each (rule, join order)
  compiles once into a :mod:`repro.semantics.plan` description, which
  :mod:`repro.semantics.codegen` turns into specialized Python; stage
  deltas travel as blocks, and whole-delta batch kernels consume them;
* the **codegen** tier — the same generated code, scalar variants
  only, one delta row at a time (``PlanCache.columnar`` off);
* the **interpreted** matcher below — the direct recursive-generator
  implementation, which serves as the reference semantics (the
  oracle), the ablation baseline (``PlanCache.compiled_plans`` off),
  and the path every traced run takes (the obs
  :class:`~repro.obs.JoinProbe` hooks between its candidate lookup and
  valuation extension).

Every tier enumerates matches in the same order and must stay
byte-for-byte equivalent; ``tests/test_plan_kernel.py`` and the
differential suites pin that equivalence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from time import perf_counter
from typing import Hashable, Iterator

from repro.ast.program import Program
from repro.ast.rules import EqLit, Lit, Rule
from repro.relational.instance import Database
from repro.semantics.plan import PlanCache, active_matcher, plan_for
from repro.terms import Const, Var, apply_valuation

#: Version of the ``repro stats --format json`` schema.  Bump on any
#: field rename/removal; additions are allowed.  Version 2 dropped the
#: ``storage`` key.
STATS_SCHEMA_VERSION = 2


@dataclass
class StageTrace:
    """Per-stage record of a forward-chaining evaluation."""

    stage: int
    new_facts: list[tuple[str, tuple]] = field(default_factory=list)
    removed_facts: list[tuple[str, tuple]] = field(default_factory=list)

    @property
    def added(self) -> int:
        return len(self.new_facts)

    @property
    def removed(self) -> int:
        return len(self.removed_facts)


@dataclass
class StageStats:
    """Instrumentation for one consequence pass of an engine.

    ``index_builds`` counts full from-scratch index constructions during
    the pass; ``index_updates`` counts single-tuple in-place maintenance
    operations.  A healthy delta-driven engine builds each index once
    and then only updates.
    """

    stage: int
    seconds: float = 0.0
    firings: int = 0
    added: int = 0
    removed: int = 0
    index_builds: int = 0
    index_updates: int = 0
    index_drops: int = 0

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "seconds": self.seconds,
            "firings": self.firings,
            "added": self.added,
            "removed": self.removed,
            "index_builds": self.index_builds,
            "index_updates": self.index_updates,
            "index_drops": self.index_drops,
        }


@dataclass
class EngineStats:
    """Whole-run observability for an evaluation engine.

    Populated by the engine drivers via :class:`StatsRecorder` and by
    :func:`immediate_consequences` (``consequence_calls``); surfaced on
    results as ``result.stats`` and by the ``repro stats`` CLI command.
    """

    engine: str = ""
    #: Which matcher tier produced the instantiations: ``"columnar"``
    #: (whole-delta batch kernels, the default), ``"codegen"``
    #: (specialized per-plan scalar functions) or ``"interpreted"``
    #: (the reference path, always used when a tracer observes the
    #: run).
    matcher: str = ""
    seconds: float = 0.0
    rule_firings: int = 0
    consequence_calls: int = 0
    adom_size: int = 0
    index_builds: int = 0
    index_updates: int = 0
    index_drops: int = 0
    #: Query-planner report (plan cache traffic, per-rule join orders
    #: with estimated vs. actual cardinality, index-cover size), or
    #: ``None`` when the planner never engaged (planner off, traced run,
    #: or an engine outside the planned paths).  A plain dict so the
    #: pinned stats JSON stays ``json.dumps``-able; see
    #: :func:`repro.semantics.planner.explain` for the shape.
    planner: dict | None = None
    #: Differential-engine counters (facts touched per update vs view
    #: size, per-component strategies, over-delete/rederive/recount
    #: tallies), or ``None`` for from-scratch engines.  A plain dict,
    #: like ``planner``, so the pinned stats JSON stays
    #: ``json.dumps``-able; populated only by
    #: :class:`repro.semantics.differential.DifferentialEngine`.
    differential: dict | None = None
    stages: list[StageStats] = field(default_factory=list)

    @property
    def stage_count(self) -> int:
        return len(self.stages)

    def summary(self) -> str:
        """A deterministic multi-line rendering (used by ``repro stats``).

        The per-stage table sizes its columns to the widest value so
        large counters never shear the alignment.
        """
        lines = [
            f"engine:            {self.engine or '(unknown)'}",
            f"matcher:           {self.matcher or '(unknown)'}",
            f"wall time:         {self.seconds:.6f} s",
            f"stages:            {len(self.stages)}",
            f"rule firings:      {self.rule_firings}",
            f"consequence calls: {self.consequence_calls}",
            f"adom size:         {self.adom_size}",
            f"index builds:      {self.index_builds}",
            f"index updates:     {self.index_updates}",
            f"index drops:       {self.index_drops}",
        ]
        if self.stages:
            headers = (
                "stage", "seconds", "firings", "+facts", "-facts",
                "builds", "updates",
            )
            rows = [
                (
                    str(s.stage), f"{s.seconds:.6f}", str(s.firings),
                    str(s.added), str(s.removed), str(s.index_builds),
                    str(s.index_updates),
                )
                for s in self.stages
            ]
            widths = [
                max(len(header), max(len(row[i]) for row in rows))
                for i, header in enumerate(headers)
            ]
            lines.append(
                "  ".join(h.rjust(w) for h, w in zip(headers, widths))
            )
            for row in rows:
                lines.append(
                    "  ".join(c.rjust(w) for c, w in zip(row, widths))
                )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """The pinned JSON shape of ``repro stats --format json``.

        ``matcher``, ``index_drops``, ``planner`` and ``differential``
        were added under the additive-changes rule of
        ``STATS_SCHEMA_VERSION``; version 2 removed ``storage``.
        """
        return {
            "engine": self.engine,
            "matcher": self.matcher,
            "seconds": self.seconds,
            "stage_count": self.stage_count,
            "rule_firings": self.rule_firings,
            "consequence_calls": self.consequence_calls,
            "adom_size": self.adom_size,
            "index_builds": self.index_builds,
            "index_updates": self.index_updates,
            "index_drops": self.index_drops,
            "planner": self.planner,
            "differential": self.differential,
            "stages": [s.to_dict() for s in self.stages],
        }


class StatsRecorder:
    """Builds an :class:`EngineStats` while an engine runs.

    The recorder *watches* a database: each :meth:`stage` call diffs the
    database's cumulative index counters against the previous call, so
    per-stage index work is attributed to the stage that did it.  Engines
    that evaluate over several scratch databases (well-founded, Statelog)
    either re-:meth:`watch` or pass explicit ``counters``.

    ``tracer`` (a :class:`repro.obs.Tracer`, duck-typed so this module
    never imports the observability layer) receives a ``run_begin``
    event on construction, one stage span per :meth:`stage` call, and a
    ``run_end`` event from :meth:`finish`.  A ``None`` or disabled
    tracer costs a single ``is None`` test per stage.
    """

    def __init__(self, engine: str, db: Database | None = None, tracer=None):
        self.stats = EngineStats(engine=engine)
        self.tracer = (
            tracer if tracer is not None and tracer.enabled else None
        )
        # Traced runs route through the interpreted twin so the join
        # probe's per-literal counts stay exact — except planned-mode
        # tracers, which deliberately keep the compiled kernel (and
        # planner) on and settle for counters-only rule spans.
        planned = self.tracer is not None and getattr(
            self.tracer, "planned", False
        )
        self.stats.matcher = (
            active_matcher()
            if self.tracer is None or planned
            else "interpreted"
        )
        self._db: Database | None = None
        self._counters = (0, 0, 0)
        self._t0 = perf_counter()
        self._mark = self._t0
        if db is not None:
            self.watch(db)
        if self.tracer is not None:
            self.tracer.run_begin(engine)

    def watch(self, db: Database) -> None:
        """(Re)bind the database whose index counters are diffed."""
        self._db = db
        self._counters = db.index_totals()

    def stage(
        self,
        stage: int,
        firings: int = 0,
        added: int = 0,
        removed: int = 0,
        counters: tuple[int, int] | tuple[int, int, int] | None = None,
        trace: StageTrace | None = None,
    ) -> None:
        """Close out one consequence pass and record its stats.

        ``counters``, when given explicitly, is ``(builds, updates)`` or
        ``(builds, updates, drops)`` — the two-element form (used by
        engines that predate index GC) implies zero drops.  ``trace``,
        when given and a fact-collecting tracer is attached, lets the
        stage span carry the actual facts added/removed (the ``repro
        trace`` rendering path).
        """
        now = perf_counter()
        if counters is None:
            if self._db is not None:
                totals = self._db.index_totals()
                counters = (
                    totals[0] - self._counters[0],
                    totals[1] - self._counters[1],
                    totals[2] - self._counters[2],
                )
                self._counters = totals
            else:
                counters = (0, 0, 0)
        record = StageStats(
            stage=stage,
            seconds=now - self._mark,
            firings=firings,
            added=added,
            removed=removed,
            index_builds=counters[0],
            index_updates=counters[1],
            index_drops=counters[2] if len(counters) > 2 else 0,
        )
        self.stats.stages.append(record)
        if self.tracer is not None:
            self.tracer.stage(record, trace=trace)
        self._mark = now

    def settle(self) -> None:
        """Fold counter movement since the last stage record into it.

        End-of-run index maintenance (the planner's cover GC) happens
        after the final consequence pass closes; without settling, those
        drops fall between stage records and never reach the totals.
        """
        if self._db is None or not self.stats.stages:
            return
        totals = self._db.index_totals()
        last = self.stats.stages[-1]
        last.index_builds += totals[0] - self._counters[0]
        last.index_updates += totals[1] - self._counters[1]
        last.index_drops += totals[2] - self._counters[2]
        self._counters = totals

    def finish(self, adom_size: int = 0) -> EngineStats:
        """Total the per-stage records and return the finished stats."""
        stats = self.stats
        stats.seconds = perf_counter() - self._t0
        stats.adom_size = adom_size
        stats.rule_firings = sum(s.firings for s in stats.stages)
        stats.index_builds = sum(s.index_builds for s in stats.stages)
        stats.index_updates = sum(s.index_updates for s in stats.stages)
        stats.index_drops = sum(s.index_drops for s in stats.stages)
        if self.tracer is not None:
            self.tracer.run_end(stats)
        return stats


@dataclass
class EvaluationResult:
    """Outcome of a deterministic evaluation.

    ``database`` holds the final instance (edb and idb relations);
    ``stages`` traces each application of the immediate consequence
    operator; ``rule_firings`` counts instantiations considered;
    ``stats`` carries the engine's :class:`EngineStats`.
    """

    database: Database
    stages: list[StageTrace] = field(default_factory=list)
    rule_firings: int = 0
    stats: EngineStats = field(
        default_factory=EngineStats, repr=False, compare=False
    )
    _stage_index: tuple[tuple[int, int], dict[tuple[str, tuple], int]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def stage_count(self) -> int:
        return len(self.stages)

    def answer(self, relation: str) -> frozenset[tuple]:
        """Tuples of one (typically the designated answer) relation."""
        return self.database.tuples(relation)

    def stage_of(self, relation: str, t: tuple) -> int | None:
        """The stage at which a fact was first derived, if it was.

        Backed by a lazily-built fact → stage dict so repeated
        provenance-style queries cost O(1) instead of a scan over every
        stage's facts; the dict is rebuilt if stages were appended since.
        """
        return self._stage_lookup().get((relation, t))

    def _stage_lookup(self) -> dict[tuple[str, tuple], int]:
        fingerprint = (
            len(self.stages),
            sum(len(trace.new_facts) for trace in self.stages),
        )
        cached = self._stage_index
        if cached is not None and cached[0] == fingerprint:
            return cached[1]
        lookup: dict[tuple[str, tuple], int] = {}
        for trace in self.stages:
            for fact in trace.new_facts:
                lookup.setdefault(fact, trace.stage)
        self._stage_index = (fingerprint, lookup)
        return lookup


def _literal_binding(
    lit: Lit, valuation: dict[Var, Hashable]
) -> tuple[tuple[int, ...], tuple[Hashable, ...], list[tuple[int, Var]]]:
    """Split a literal's positions into bound (position, value) and free."""
    bound_positions: list[int] = []
    bound_values: list[Hashable] = []
    free: list[tuple[int, Var]] = []
    for position, term in enumerate(lit.atom.terms):
        if isinstance(term, Const):
            bound_positions.append(position)
            bound_values.append(term.value)
        elif term in valuation:
            bound_positions.append(position)
            bound_values.append(valuation[term])
        else:
            free.append((position, term))
    return tuple(bound_positions), tuple(bound_values), free


def _order_positive_indices(literals: list[Lit], db: Database) -> list[int]:
    """Greedy join order, as indices: start small, follow shared variables.

    Ties (same shared-variable count, same relation size) go to the
    literal occurring first in the rule body.
    """
    if not literals:
        return []
    sizes: list[int] = []
    for lit in literals:
        rel = db.relation(lit.relation)
        sizes.append(len(rel) if rel is not None else 0)
    return _greedy_order([lit.variables() for lit in literals], sizes)


def _greedy_order(var_sets: list[set[Var]], sizes: list[int]) -> list[int]:
    """The selection loop of :func:`_order_positive_indices`.

    Takes each literal's variable set and relation size, so a caller
    holding the variable sets (the differential engine's head probes)
    orders a body without rebuilding them.  The loop runs O(n²) times
    per rule per call and must not rebuild them either.
    """
    remaining = list(range(len(var_sets)))
    ordered: list[int] = []
    bound: set[Var] = set()
    while remaining:
        best_slot = 0
        best_key = (-1, 1)
        for slot, i in enumerate(remaining):
            shared = len(var_sets[i] & bound)
            key = (shared, -sizes[i])
            if key > best_key:
                best_key = key
                best_slot = slot
        chosen = remaining.pop(best_slot)
        ordered.append(chosen)
        bound |= var_sets[chosen]
    return ordered


def _order_positive(literals: list[Lit], db: Database) -> list[Lit]:
    """Greedy join order over the literals themselves (see above)."""
    return [literals[i] for i in _order_positive_indices(literals, db)]


def _literal_candidates(
    lit: Lit,
    db: Database,
    valuation: dict[Var, Hashable],
    restricted: frozenset[tuple] | None = None,
) -> tuple[list[tuple], list[tuple[int, Var]]]:
    """The candidate tuples one positive literal will be joined against.

    Returns ``(candidates, free)`` where ``free`` are the literal's
    still-unbound (position, variable) pairs.  Split out from
    :func:`_extend_valuation` so the observability layer's join probe
    can count candidates without duplicating the lookup logic.
    """
    bound_positions, bound_values, free = _literal_binding(lit, valuation)
    rel = db.relation(lit.relation)
    if restricted is not None:
        candidates = [
            t
            for t in restricted
            if all(t[p] == v for p, v in zip(bound_positions, bound_values))
        ]
    elif rel is None:
        candidates = []
    elif not free and bound_positions:
        exact = tuple(bound_values)
        candidates = [exact] if exact in rel else []
    elif bound_positions:
        # Snapshot the bucket: consumers may add facts between yields,
        # and the live ordered-set bucket must not grow mid-iteration.
        bucket = rel.index(bound_positions).get(tuple(bound_values))
        candidates = list(bucket) if bucket else []
    else:
        candidates = list(rel)
    return candidates, free


def _extend_valuation(
    candidates: list[tuple],
    free: list[tuple[int, Var]],
    valuation: dict[Var, Hashable],
) -> Iterator[dict[Var, Hashable]]:
    """Extend ``valuation`` over each candidate tuple; yields and undoes."""
    for candidate in candidates:
        newly_bound: list[Var] = []
        consistent = True
        for position, var in free:
            value = candidate[position]
            if var in valuation:
                if valuation[var] != value:
                    consistent = False
                    break
            else:
                valuation[var] = value
                newly_bound.append(var)
        if consistent:
            yield valuation
        for var in newly_bound:
            del valuation[var]


def _iter_literal_matches(
    lit: Lit,
    db: Database,
    valuation: dict[Var, Hashable],
    restricted: frozenset[tuple] | None = None,
) -> Iterator[dict[Var, Hashable]]:
    """Extend ``valuation`` over one positive literal; yields and undoes.

    This is the fused (untraced) twin of
    ``_literal_candidates`` + ``_extend_valuation``; the pair exists so
    the observability probe can count candidates between the two steps.
    Any change here must be mirrored there.
    """
    bound_positions, bound_values, free = _literal_binding(lit, valuation)
    rel = db.relation(lit.relation)
    if restricted is not None:
        candidates: Iterator[tuple] | list[tuple] = [
            t
            for t in restricted
            if all(t[p] == v for p, v in zip(bound_positions, bound_values))
        ]
    elif rel is None:
        candidates = []
    elif not free and bound_positions:
        exact = tuple(bound_values)
        candidates = [exact] if exact in rel else []
    elif bound_positions:
        # Snapshot, as in _literal_candidates: the bucket is a live
        # ordered set and consumers may add facts between yields.
        bucket = rel.index(bound_positions).get(tuple(bound_values))
        candidates = list(bucket) if bucket else []
    else:
        candidates = list(rel)
    return _extend_valuation(candidates, free, valuation)


def _propagate_equalities(
    equalities: list[EqLit], valuation: dict[Var, Hashable]
) -> tuple[bool, list[Var]]:
    """Bind variables through positive equalities; check bound ones.

    Returns (consistent, newly bound variables); on inconsistency the
    caller must still undo the returned bindings.
    """
    newly_bound: list[Var] = []
    progress = True
    pending = [eq for eq in equalities if eq.positive]
    while progress:
        progress = False
        still_pending: list[EqLit] = []
        for eq in pending:
            left_val = (
                eq.left.value
                if isinstance(eq.left, Const)
                else valuation.get(eq.left, _UNBOUND)
            )
            right_val = (
                eq.right.value
                if isinstance(eq.right, Const)
                else valuation.get(eq.right, _UNBOUND)
            )
            if left_val is not _UNBOUND and right_val is not _UNBOUND:
                if left_val != right_val:
                    return False, newly_bound
            elif left_val is not _UNBOUND:
                valuation[eq.right] = left_val  # type: ignore[index]
                newly_bound.append(eq.right)  # type: ignore[arg-type]
                progress = True
            elif right_val is not _UNBOUND:
                valuation[eq.left] = right_val  # type: ignore[index]
                newly_bound.append(eq.left)  # type: ignore[arg-type]
                progress = True
            else:
                still_pending.append(eq)
        pending = still_pending
    return True, newly_bound


class _Unbound:
    __slots__ = ()


_UNBOUND = _Unbound()


def _check_residual(
    rule: Rule, db: Database, valuation: dict[Var, Hashable]
) -> bool:
    """Check negative literals and (in)equalities under a full valuation."""
    for lit in rule.negative_body():
        if db.has_fact(lit.relation, apply_valuation(lit.atom.terms, valuation)):
            return False
    for eq in rule.equality_body():
        left = eq.left.value if isinstance(eq.left, Const) else valuation[eq.left]
        right = eq.right.value if isinstance(eq.right, Const) else valuation[eq.right]
        if (left == right) != eq.positive:
            return False
    return True


def iter_matches(
    rule: Rule,
    db: Database,
    adom: tuple[Hashable, ...],
    delta: dict[str, frozenset[tuple]] | None = None,
    probe=None,
) -> Iterator[dict[Var, Hashable]]:
    """All instantiations of ``rule`` w.r.t. ``db`` (see module docstring).

    Yields valuations covering every body variable (head-only invention
    variables are *not* bound here — the invention engine handles them).
    The yielded dict is reused; callers must copy it if they keep it.

    ``delta``, when given, restricts matching so that at least one
    positive literal matches a delta fact (semi-naive evaluation): the
    generator is run once per positive literal occurrence with that
    occurrence restricted to the delta, which may yield duplicate
    valuations — callers dedupe via the set of derived facts.

    Universal (∀) rules are handled by
    :func:`iter_universal_matches`; this function ignores the
    ``universal`` marker and treats all variables existentially.

    ``probe`` (a :class:`repro.obs.JoinProbe`, duck-typed) observes the
    per-literal join: candidates considered and matches produced, keyed
    by the literal's position in the chosen join order.  ``None`` (the
    default) costs a single ``is None`` test per join level.  Probed
    runs always take the interpreted path, so the probe's counts are
    exact; unprobed runs take the compiled kernel (unless
    ``PlanCache.compiled_plans`` is off), which enumerates the same
    valuations in the same order.
    """
    positive = list(rule.positive_body())
    if probe is None and PlanCache.compiled_plans:
        order = tuple(_order_positive_indices(positive, db))
        plan = plan_for(rule, order)
        out: dict[Var, Hashable] = {}
        out_vars = plan.out_vars
        for slots in plan.iter_slot_matches(db, adom, delta):
            for var, s in out_vars:
                out[var] = slots[s]
            yield out
        return
    ordered = _order_positive(positive, db)

    def run(restricted_index: int | None) -> Iterator[dict[Var, Hashable]]:
        valuation: dict[Var, Hashable] = {}

        def descend(idx: int) -> Iterator[dict[Var, Hashable]]:
            if idx == len(ordered):
                yield from finish()
                return
            lit = ordered[idx]
            restricted = None
            if restricted_index is not None and idx == restricted_index:
                restricted = (delta or {}).get(lit.relation, frozenset())
            if probe is None:
                matches = _iter_literal_matches(lit, db, valuation, restricted)
            else:
                matches = probe.iter_matches(idx, lit, db, valuation, restricted)
            for _ in matches:
                yield from descend(idx + 1)

        def finish() -> Iterator[dict[Var, Hashable]]:
            ok, eq_bound = _propagate_equalities(
                list(rule.equality_body()), valuation
            )
            if ok:
                unbound = [
                    v for v in sorted(rule.body_variables(), key=lambda v: v.name)
                    if v not in valuation
                ]
                if unbound:
                    for values in itertools.product(adom, repeat=len(unbound)):
                        for var, value in zip(unbound, values):
                            valuation[var] = value
                        if _check_residual(rule, db, valuation):
                            yield valuation
                    for var in unbound:
                        valuation.pop(var, None)
                else:
                    if _check_residual(rule, db, valuation):
                        yield valuation
            for var in eq_bound:
                valuation.pop(var, None)

        yield from descend(0)

    if delta is None:
        yield from run(None)
    else:
        touched = {
            i
            for i, lit in enumerate(ordered)
            if lit.relation in delta and delta[lit.relation]
        }
        for i in sorted(touched):
            yield from run(i)


def iter_universal_matches(
    rule: Rule,
    db: Database,
    adom: tuple[Hashable, ...],
) -> Iterator[dict[Var, Hashable]]:
    """Instantiations of an N-Datalog¬∀ rule (§5.2).

    The rule fires with a valuation ``v`` of its non-universal variables
    iff *every* extension of ``v`` to the universal variables (over the
    active domain) satisfies the whole body.  Candidates for ``v`` come
    from matching the universal-free part of the body; each candidate is
    then verified against all adom-extensions of the universal part.
    """
    universal = set(rule.universal)
    free_literals = [
        lit for lit in rule.body if not (lit.variables() & universal)
    ]
    bound_literals = [lit for lit in rule.body if lit.variables() & universal]
    probe = Rule(rule.head, tuple(free_literals))
    check = Rule(rule.head, tuple(bound_literals))
    ordered_universal = sorted(universal, key=lambda v: v.name)

    for valuation in iter_matches(probe, db, adom):
        holds = True
        for values in itertools.product(adom, repeat=len(ordered_universal)):
            extended = dict(valuation)
            extended.update(zip(ordered_universal, values))
            if not _holds_under(check, db, extended):
                holds = False
                break
        if holds:
            yield valuation


def _holds_under(rule: Rule, db: Database, valuation: dict[Var, Hashable]) -> bool:
    """Does the (fully instantiated) body of ``rule`` hold in ``db``?"""
    for lit in rule.positive_body():
        if not db.has_fact(lit.relation, apply_valuation(lit.atom.terms, valuation)):
            return False
    return _check_residual(rule, db, valuation)


def instantiate_head(
    rule: Rule, valuation: dict[Var, Hashable]
) -> list[tuple[str, tuple, bool]]:
    """The instantiated head facts as (relation, tuple, positive) triples.

    ⊥ head literals are skipped here; engines that support them check
    :meth:`Rule.has_bottom_head` separately.
    """
    out: list[tuple[str, tuple, bool]] = []
    for lit in rule.head_literals():
        out.append(
            (lit.relation, apply_valuation(lit.atom.terms, valuation), lit.positive)
        )
    return out


def evaluation_adom(program: Program, db: Database) -> tuple[Hashable, ...]:
    """adom(P, I) in a deterministic order."""
    values = program.constants() | db.active_domain()
    return tuple(sorted(values, key=lambda v: (type(v).__name__, repr(v))))


def immediate_consequences(
    program: Program,
    db: Database,
    adom: tuple[Hashable, ...],
    delta: dict[str, frozenset[tuple]] | None = None,
    stats: EngineStats | None = None,
    tracer=None,
) -> tuple[set[tuple[str, tuple]], set[tuple[str, tuple]], int]:
    """One parallel firing of all rules: Γ_P's new inferences.

    Returns ``(positive, negative, firings)`` where ``positive`` are the
    inferred facts, ``negative`` the inferred negations (nonempty only
    for Datalog¬¬ programs), and ``firings`` the number of rule
    instantiations found.  The caller decides how to combine them with
    the current instance (inflationary union, deletion policies, …).
    ``stats``, when given, has its ``consequence_calls`` bumped.

    ``tracer`` (a :class:`repro.obs.Tracer`, duck-typed), when enabled,
    diverts evaluation through the instrumented per-rule path, emitting
    one rule span per rule with firings, tuples emitted/deduplicated,
    and per-literal join statistics.  With no tracer the hot loop below
    is untouched.
    """
    if stats is not None:
        stats.consequence_calls += 1
    if tracer is not None and tracer.enabled:
        # Lazy import: planner builds on this module's matcher
        # primitives.
        from repro.semantics import planner as _planner

        if (
            getattr(tracer, "planned", False)
            and _planner.QueryPlanner.enabled
        ):
            # Planned-mode tracing: keep the planner (and compiled
            # kernel) engaged and let it emit counters-only rule spans,
            # so the profile shows the join orders production runs.
            handled = _planner.consequences(
                program, db, adom, delta, stats, tracer=tracer
            )
            if handled is not None:
                return handled
        return _traced_consequences(program, db, adom, delta, tracer)
    # Lazy import: planner builds on this module's matcher primitives.
    from repro.semantics import planner as _planner

    if _planner.QueryPlanner.enabled:
        handled = _planner.consequences(program, db, adom, delta, stats)
        if handled is not None:
            return handled
    positive: set[tuple[str, tuple]] = set()
    negative: set[tuple[str, tuple]] = set()
    firings = 0
    if PlanCache.compiled_plans:
        # Compiled path: head facts come straight from the plan's
        # emitter templates — no valuation dict is ever built (except
        # for invention rules, whose heads need variables no slot
        # holds).
        for rule in program.rules:
            body = list(rule.positive_body())
            if delta is not None and not body:
                continue
            order = tuple(_order_positive_indices(body, db))
            plan = plan_for(rule, order)
            emitters = plan.emitters
            if emitters is None:
                out_vars = plan.out_vars
                for slots in plan.iter_slot_matches(db, adom, delta):
                    firings += 1
                    valuation = {var: slots[s] for var, s in out_vars}
                    for relation, t, is_positive in instantiate_head(
                        rule, valuation
                    ):
                        if is_positive:
                            positive.add((relation, t))
                        else:
                            negative.add((relation, t))
            else:
                for slots in plan.iter_slot_matches(db, adom, delta):
                    firings += 1
                    for relation, template, fills, is_positive in emitters:
                        for position, s in fills:
                            template[position] = slots[s]
                        fact = (relation, tuple(template))
                        if is_positive:
                            positive.add(fact)
                        else:
                            negative.add(fact)
        return positive, negative, firings
    for rule in program.rules:
        # Rules with an empty positive body can never match a delta fact.
        if delta is not None and not rule.positive_body():
            continue
        for valuation in iter_matches(rule, db, adom, delta=delta):
            firings += 1
            for relation, t, is_positive in instantiate_head(rule, valuation):
                if is_positive:
                    positive.add((relation, t))
                else:
                    negative.add((relation, t))
    return positive, negative, firings


def _traced_consequences(
    program: Program,
    db: Database,
    adom: tuple[Hashable, ...],
    delta: dict[str, frozenset[tuple]] | None,
    tracer,
) -> tuple[set[tuple[str, tuple]], set[tuple[str, tuple]], int]:
    """The instrumented twin of the loop in :func:`immediate_consequences`.

    Identical inferences; additionally opens one rule span per rule and
    attributes wall time, firings, emitted and deduplicated tuples, and
    per-literal join counts to it.  ``deduplicated`` counts head
    instantiations already inferred earlier in this pass.
    """
    positive: set[tuple[str, tuple]] = set()
    negative: set[tuple[str, tuple]] = set()
    firings = 0
    for rule_index, rule in enumerate(program.rules):
        if delta is not None and not rule.positive_body():
            continue
        span = tracer.rule_span(rule_index, rule)
        for valuation in iter_matches(
            rule, db, adom, delta=delta, probe=span.probe
        ):
            span.firings += 1
            for relation, t, is_positive in instantiate_head(rule, valuation):
                fact = (relation, t)
                target = positive if is_positive else negative
                span.emitted += 1
                if fact in target:
                    span.deduplicated += 1
                else:
                    target.add(fact)
        firings += span.firings
        span.close()
    return positive, negative, firings
