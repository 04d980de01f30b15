"""Compiled rule plans: the shared matcher's production executor.

:func:`repro.semantics.base.iter_matches` evaluates a rule body as a
backtracking join.  The interpreted path (the semantic oracle)
re-derives everything per partial valuation: it splits each literal
into bound/free positions with ``isinstance`` tests, builds index keys
term by term, and threads a ``dict[Var, value]`` through nested
generators.  None of that depends on the data — only on the rule and
the chosen join order — so this module compiles it away once per
(rule, join order) into a :class:`RulePlan`:

* each positive literal becomes a :class:`Step` — a static record of
  its index-key template (constants prefilled, bound-variable slots
  patched in), the (position → slot) pairs it binds, and the
  within-literal repeated-variable checks;
* equality propagation becomes a fixed sequence of slot assignments
  plus precomputed consistency checks (contradictory constants fold
  into ``RulePlan.never`` at compile time);
* residual negative literals become (relation, tuple-template) probes
  and (in)equalities become slot/constant comparisons;
* head literals become emitter templates, so
  :func:`~repro.semantics.base.immediate_consequences` can produce head
  facts without ever materializing a valuation dict.

A plan is a description, not an executor: every run dispatches to the
functions :mod:`repro.semantics.codegen` generates from it (a
:class:`~repro.semantics.codegen.CodegenPlan` cached on the plan as
``codegen_fns``).  Valuations remain dicts at the API boundary:
``iter_matches`` reconstructs one (reused) dict per match from
``RulePlan.out_vars``.  Semi-naive delta restriction is one generated
variant per restricted step, so one plan covers every restricted
variant of a join order.

Plans are cached on the rule object, keyed on the join order, so the
cheap size-driven ``_order_positive`` choice still runs per rule per
stage and merely *selects* among cached plans; they die with the rule.

Match enumeration order is byte-for-byte the interpreted path's order:
index buckets preserve insertion order, full scans iterate the
relation's tuple set, restricted runs iterate the delta frozenset, and
adom-enumerated variables are ordered by name — all exactly as the
interpreted twin does.  Engines seeded on match order (choice,
nondeterministic) therefore produce identical runs under every tier.

The matcher ladder has three rungs, named by :func:`active_matcher`:

* ``interpreted`` — :attr:`PlanCache.compiled_plans` off: every engine
  runs the :mod:`repro.semantics.base` oracle;
* ``codegen`` — plans on, :attr:`PlanCache.columnar` off: the scalar
  generated walks, one delta row at a time;
* ``columnar`` (the default) — semi-naive drivers freeze each stage's
  delta through :func:`make_delta` into a :class:`DeltaBlock`, and
  ``run_emit``/``run_rows`` dispatch to the ``emit_batch_*``/
  ``walk_batch_*`` kernels: one list comprehension that consumes the
  whole block instead of resuming a generator frame per tuple.  The
  generator flavor (``iter_matches`` and the seeded engines) keeps the
  scalar walk: a batch kernel materializes its whole result, which is
  exactly what consumers that mutate between yields must not see.

Traced runs drop to the interpreted matcher upstream so per-literal
``JoinProbe`` counts stay exact.  :func:`matcher_override` is the one
sanctioned way to flip tiers temporarily (CLI ``--matcher``,
benchmarks, tests): it restores the toggles even when the body raises.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Hashable, Iterator
from weakref import WeakKeyDictionary, WeakValueDictionary, ref

from repro.ast.rules import EqLit, Lit, Rule
from repro.relational.instance import Database
# ``compile_plan`` is bound here for CodegenPlan's miss path, which
# compiles every variant through this module's binding (so a wrapper
# installed on it sees each compile).
from repro.semantics.codegen import CodegenPlan, compile_plan  # noqa: F401
from repro.terms import Const, Var


class PlanCache:
    """The compiled-plan registry and its class-wide toggles."""

    #: Class-wide switch.  When True (the default), ``iter_matches`` and
    #: ``immediate_consequences`` run compiled plans through their
    #: generated code; when False, every engine uses the interpreted
    #: oracle.  Flip it only through :func:`matcher_override`.
    compiled_plans: bool = True

    #: Always True; no engine code reads it.  Plans have no executor
    #: besides their generated code, so there is nothing to switch
    #: off.  It stays a class constant because external tier checks
    #: (the benchmark's default-flag guard) read it.
    codegen: bool = True

    #: When True (the default) and ``compiled_plans`` is on,
    #: ``run_emit``/``run_rows`` dispatch to the batch kernels
    #: (``emit_batch_*``/``walk_batch_*``) and the semi-naive drivers
    #: wrap stage deltas in :class:`DeltaBlock`\\ s via
    #: :func:`make_delta`; when False, plans run the scalar generated
    #: walks.  Checked per call, so flipping it between runs takes
    #: effect immediately; plans without a batchable shape fall back to
    #: the scalar variants either way.
    columnar: bool = True

    #: A rule's plans ride on the rule object itself (attribute
    #: ``_RULE_PLANS``), so the per-stage lookup is one attribute read
    #: and the plans die with the rule (a plan references its rule, so
    #: a cache keyed on the rule would keep both alive forever).
    #: ``_shared`` lets structurally equal rules (spans excluded from
    #: Rule equality) find and share those plans; it is weak on both
    #: sides.  ``_owners`` (identity-keyed, weak) lists the rules
    #: carrying plans, for :meth:`clear`.
    _shared: "WeakKeyDictionary[Rule, ref[_RulePlans]]" = WeakKeyDictionary()
    _owners: "WeakValueDictionary[int, Rule]" = WeakValueDictionary()

    @classmethod
    def clear(cls) -> None:
        """Drop every cached plan — and, with each plan, its generated
        functions (``codegen_fns`` lives on the plan object, so the two
        caches cannot go out of sync)."""
        for rule in list(cls._owners.values()):
            rule.__dict__.pop(_RULE_PLANS, None)
        cls._shared = WeakKeyDictionary()
        cls._owners = WeakValueDictionary()


class _RulePlans(dict):
    """One rule's plans: join order (or ``(order, bound)``) → RulePlan.

    A dict subclass only so :attr:`PlanCache._shared` can hold it
    weakly.
    """

    __slots__ = ("__weakref__",)


_RULE_PLANS = "_rule_plans"


def cached_plans(rule: Rule) -> "list[RulePlan]":
    """The plans cached for ``rule`` (or a structurally equal rule)."""
    per_rule = getattr(rule, _RULE_PLANS, None)
    if per_rule is None:
        per_rule = _attach_plans(rule)
    return list(per_rule.values())


def active_matcher() -> str:
    """The matcher tier an untraced run will use right now.

    ``"columnar"`` > ``"codegen"`` > ``"interpreted"``: the batch
    kernels only apply on top of compiled plans, so turning
    ``compiled_plans`` off wins regardless of ``columnar``.
    """
    if not PlanCache.compiled_plans:
        return "interpreted"
    return "columnar" if PlanCache.columnar else "codegen"


#: Tier name → (compiled_plans, columnar) toggle settings.
_TIER_FLAGS = {
    "interpreted": (False, False),
    "codegen": (True, False),
    "columnar": (True, True),
}


@contextmanager
def matcher_override(matcher: str | None):
    """Temporarily force one matcher tier; restore the toggles on exit.

    The single sanctioned way to flip :class:`PlanCache`'s class-level
    toggles (CLI ``--matcher``, benchmark ablations, tests): both
    flags are saved before the switch and restored in a ``finally``, so
    an exception mid-run cannot leak a flipped toggle into later
    evaluations.  ``None`` means "leave the tiers alone" (no-op), which
    lets callers pass an optional flag straight through.
    """
    if matcher is None:
        yield
        return
    flags = _TIER_FLAGS[matcher]  # unknown names raise before flipping
    saved = (PlanCache.compiled_plans, PlanCache.columnar)
    try:
        PlanCache.compiled_plans, PlanCache.columnar = flags
        yield
    finally:
        PlanCache.compiled_plans, PlanCache.columnar = saved


@contextmanager
def kernel_difference():
    """Enable the batch kernels' in-kernel difference for this block.

    Inside the context the fused ``emit_batch_*`` kernels subtract the
    head relation's current content before emitting — semi-naive's
    difference pushed into the kernel as one bulk
    ``difference_update``, so downstream absorption touches only
    genuinely new facts.  Sound exactly when the caller is an
    *add-only* fixpoint loop (anything it does with an emitted fact
    already in the database is a no-op): the semi-naive drivers, the
    planner's scheduled fixpoint, the differential engine's insertion
    and rederivation passes.  Consumers that read consequence sets as
    "everything derivable" — trigger steps computing
    ``negative - positive``, noninflationary conflict policies, the
    differential engine's affected/over-deletion discovery — must
    stay outside.
    """
    saved = CodegenPlan.subtract_known
    CodegenPlan.subtract_known = True
    try:
        yield
    finally:
        CodegenPlan.subtract_known = saved


class DeltaBlock:
    """One relation's semi-naive delta as a batch of rows.

    ``facts`` is the frozen delta set (membership tests); ``rows`` fixes
    its enumeration order once, so the ``*_batch_*`` kernels unpack a
    tuple instead of re-iterating the set.  A block is a drop-in for
    the frozenset it wraps everywhere a delta flows: iteration yields
    the identical row sequence, so flipping the columnar tier cannot
    perturb seeded engines.
    """

    __slots__ = ("facts", "rows")

    def __init__(self, facts: frozenset[tuple]):
        self.facts = facts
        self.rows = tuple(facts)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __contains__(self, t: tuple) -> bool:
        return t in self.facts

    def __repr__(self) -> str:
        return f"DeltaBlock({len(self.rows)} rows)"


def make_delta(facts) -> "frozenset[tuple] | DeltaBlock":
    """Freeze one relation's stage delta for the next semi-naive pass.

    Under the columnar tier non-empty deltas become
    :class:`DeltaBlock`\\ s, ready for the batch kernels; otherwise a
    plain ``frozenset``.  A block iterates in exactly the frozenset's
    enumeration order, so every row-at-a-time consumer (including the
    seeded engines and the scalar fallbacks) sees the same sequence
    under either wrapping.
    """
    frozen = frozenset(facts)
    if frozen and PlanCache.columnar and PlanCache.compiled_plans:
        return DeltaBlock(frozen)
    return frozen


class Step:
    """One compiled positive literal of a join order.

    ``key_positions`` are the tuple positions bound before this step
    runs (constants and already-bound variables, in position order —
    the same tuple the interpreted path indexes on, so both matchers
    share the relation's index cache).  ``key_template``/``key_fills``
    spell the index key without walking terms: constants are
    prefilled, fills name the bound slots patched in.  ``binds`` are the
    (position → slot) pairs this step binds; ``withins`` are (position,
    earlier position) equality checks for variables repeated *within*
    the literal.
    ``exact`` marks a fully-bound literal (membership probe, no index).

    A step normally probes the flat index on ``key_positions``.  The
    query planner may instead point it at a shared *chain* index from
    its minimal cover (:func:`plan_with_cover`): ``chain_order`` names
    the trie's column order, ``chain_depth`` how many levels this
    step's key binds, and ``chain_perm`` re-orders the built key (which
    is in position order) into column order.
    """

    __slots__ = (
        "relation",
        "key_positions",
        "key_template",
        "key_fills",
        "binds",
        "withins",
        "exact",
        "chain_order",
        "chain_depth",
        "chain_perm",
    )

    def __init__(
        self,
        relation: str,
        key_positions: tuple[int, ...],
        key_template: tuple[Hashable, ...],
        key_fills: tuple[tuple[int, int], ...],
        binds: tuple[tuple[int, int], ...],
        withins: tuple[tuple[int, int], ...],
    ):
        self.relation = relation
        self.key_positions = key_positions
        self.key_template = key_template
        self.key_fills = key_fills
        self.binds = binds
        self.withins = withins
        self.exact = bool(key_positions) and not binds and not withins
        self.chain_order = None
        self.chain_depth = 0
        self.chain_perm = ()


class RulePlan:
    """A rule compiled against one join order (see module docstring)."""

    __slots__ = (
        "rule",
        "order",
        "bound",
        "n_slots",
        "steps",
        "never",
        "assigns",
        "pre_checks",
        "unbound_slots",
        "neg_checks",
        "post_checks",
        "out_vars",
        "emitters",
        "codegen_fns",
        "cover_twins",
    )

    def __init__(
        self,
        rule: Rule,
        order: tuple[int, ...],
        bound: tuple[Var, ...] = (),
    ):
        self.rule = rule
        self.order = order
        #: Variables pre-bound by the caller (the differential engine's
        #: head-bound rederivation probes).  They claim slots 0..k-1 in
        #: ``bound`` order, so a seed tuple fills them positionally;
        #: every later occurrence compiles to an index key fill — the
        #: probes are restricted by the seed, not post-filtered.
        self.bound = bound
        #: Lazily-built :class:`~repro.semantics.codegen.CodegenPlan`
        #: (whose variants compile on first dispatch) — the plan's
        #: executor; lives and dies with this plan object (see
        #: PlanCache.clear).
        self.codegen_fns = None
        #: Memoized :func:`plan_with_cover` twins, keyed by the applied
        #: per-step chain specs.  Planner contexts are per-evaluation,
        #: so without this each run would rebuild (and recompile)
        #: every cover twin.  Same lifecycle as the plan itself.
        self.cover_twins = None
        positive = rule.positive_body()
        slot_of: dict[Var, int] = {}

        def slot(v: Var) -> int:
            s = slot_of.get(v)
            if s is None:
                s = slot_of[v] = len(slot_of)
            return s

        for v in bound:
            slot(v)

        # -- per-literal steps -------------------------------------------
        steps: list[Step] = []
        for index in order:
            lit = positive[index]
            key_positions: list[int] = []
            key_template: list[Hashable] = []
            key_fills: list[tuple[int, int]] = []
            binds: list[tuple[int, int]] = []
            withins: list[tuple[int, int]] = []
            seen_here: dict[Var, int] = {}  # new vars only
            for position, term in enumerate(lit.terms):
                if isinstance(term, Const):
                    key_positions.append(position)
                    key_template.append(term.value)
                elif term in seen_here:
                    withins.append((position, seen_here[term]))
                elif term in slot_of:
                    key_positions.append(position)
                    key_fills.append((len(key_template), slot_of[term]))
                    key_template.append(None)
                else:
                    seen_here[term] = position
                    binds.append((position, slot(term)))
            steps.append(
                Step(
                    lit.relation,
                    tuple(key_positions),
                    tuple(key_template),
                    tuple(key_fills),
                    tuple(binds),
                    tuple(withins),
                )
            )
        self.steps = tuple(steps)

        # -- equality propagation, compiled statically -------------------
        # The set of variables bound after the join is static, so the
        # propagation fixpoint of base._propagate_equalities runs here,
        # at compile time, producing ordered slot assignments.
        never = False
        assigns: list[tuple[int, int | None, Hashable]] = []
        checks: list[EqLit] = []  # both sides bound: check once at finish
        pending = [eq for eq in rule.equality_body() if eq.positive]
        progress = True
        while progress:
            progress = False
            still: list[EqLit] = []
            for eq in pending:
                left_bound = isinstance(eq.left, Const) or eq.left in slot_of
                right_bound = isinstance(eq.right, Const) or eq.right in slot_of
                if left_bound and right_bound:
                    checks.append(eq)
                elif left_bound:
                    dst = slot(eq.right)
                    if isinstance(eq.left, Const):
                        assigns.append((dst, None, eq.left.value))
                    else:
                        assigns.append((dst, slot_of[eq.left], None))
                    progress = True
                elif right_bound:
                    dst = slot(eq.left)
                    if isinstance(eq.right, Const):
                        assigns.append((dst, None, eq.right.value))
                    else:
                        assigns.append((dst, slot_of[eq.right], None))
                    progress = True
                else:
                    still.append(eq)
            pending = still
        self.assigns = tuple(assigns)

        def check_spec(eq: EqLit) -> tuple:
            left = (
                (None, eq.left.value)
                if isinstance(eq.left, Const)
                else (slot_of[eq.left], None)
            )
            right = (
                (None, eq.right.value)
                if isinstance(eq.right, Const)
                else (slot_of[eq.right], None)
            )
            return (*left, *right, eq.positive)

        # -- adom enumeration for variables the join never binds ---------
        body_vars = rule.body_variables()
        unbound = sorted(
            (v for v in body_vars if v not in slot_of), key=lambda v: v.name
        )
        self.unbound_slots = tuple(slot(v) for v in unbound)
        enumerated = set(unbound)

        # Pre-checks run once per join match, before enumeration (the
        # interpreted twin checks them during propagation); post-checks
        # involve enumerated variables and run per adom combination.
        pre_checks: list[tuple] = []
        post_checks: list[tuple] = []
        for eq in itertools.chain(
            checks,
            pending,
            (eq for eq in rule.equality_body() if not eq.positive),
        ):
            if isinstance(eq.left, Const) and isinstance(eq.right, Const):
                if (eq.left.value == eq.right.value) != eq.positive:
                    never = True
                continue  # statically true: no runtime check needed
            touches_enumerated = (
                (isinstance(eq.left, Var) and eq.left in enumerated)
                or (isinstance(eq.right, Var) and eq.right in enumerated)
            )
            (post_checks if touches_enumerated else pre_checks).append(
                check_spec(eq)
            )
        self.pre_checks = tuple(pre_checks)
        self.post_checks = tuple(post_checks)
        self.never = never

        # -- residual negative literals ----------------------------------
        neg_checks: list[tuple[str, list, tuple[tuple[int, int], ...]]] = []
        for lit in rule.negative_body():
            template: list[Hashable] = []
            fills: list[tuple[int, int]] = []
            for position, term in enumerate(lit.terms):
                if isinstance(term, Const):
                    template.append(term.value)
                else:
                    fills.append((position, slot_of[term]))
                    template.append(None)
            neg_checks.append((lit.relation, template, tuple(fills)))
        self.neg_checks = tuple(neg_checks)

        # -- output reconstruction and head emitters ---------------------
        self.n_slots = len(slot_of)
        self.out_vars = tuple(slot_of.items())
        emitters: list[tuple[str, list, tuple[tuple[int, int], ...], bool]] = []
        compilable = True
        for lit in rule.head_literals():
            template = []
            fills = []
            for position, term in enumerate(lit.terms):
                if isinstance(term, Const):
                    template.append(term.value)
                elif term in slot_of:
                    fills.append((position, slot_of[term]))
                    template.append(None)
                else:  # invention variable: no slot to read from
                    compilable = False
                    break
            if not compilable:
                break
            emitters.append((lit.relation, template, tuple(fills), lit.positive))
        #: None when a head variable has no slot (Datalog¬new invention);
        #: consumers fall back to dict valuations + instantiate_head.
        self.emitters = tuple(emitters) if compilable else None

    # -- execution ----------------------------------------------------------

    def iter_slot_matches(
        self,
        db: Database,
        adom: tuple[Hashable, ...],
        delta: dict[str, frozenset[tuple]] | None = None,
    ) -> Iterator[list]:
        """All matches, as the (reused) slot list.

        Mirrors ``iter_matches``: without ``delta`` the plan runs once;
        with it, once per step whose relation has delta facts, that
        step's candidates restricted to the delta.
        """
        if self.never:
            return
        if delta is None:
            yield from self._run(db, adom, -1, None)
        else:
            for index, step in enumerate(self.steps):
                restricted = delta.get(step.relation)
                if restricted:
                    yield from self._run(db, adom, index, restricted)

    def iter_restricted(
        self,
        db: Database,
        adom: tuple[Hashable, ...],
        step_index: int,
        restricted: frozenset[tuple],
    ) -> Iterator[list]:
        """One semi-naive variant: ``steps[step_index]`` drawn from
        ``restricted``.

        The planner path: it compiles a distinct delta-first order per
        restricted occurrence, so each variant is its own plan and runs
        exactly one restricted step (``iter_slot_matches`` instead runs
        every touched variant of one shared order).
        """
        if self.never or not restricted:
            return
        yield from self._run(db, adom, step_index, restricted)

    def iter_seeded(
        self,
        db: Database,
        adom: tuple[Hashable, ...],
        seed: tuple[Hashable, ...],
    ) -> Iterator[list]:
        """All matches with the ``bound`` slots pre-filled from ``seed``.

        The differential engine's rederivation probe: ``seed`` gives the
        values of ``self.bound`` positionally (slots ``0..len(seed)-1``),
        and the walk runs with those slots already bound — every
        occurrence of a bound variable probes an index key instead of
        scanning.  Only meaningful on plans built with ``bound``.
        """
        if self.never:
            return iter(())
        return self._run(db, adom, -1, None, seed)

    def run_rows(
        self,
        db: Database,
        adom: tuple[Hashable, ...],
        restricted_index: int,
        restricted: frozenset[tuple] | None,
    ) -> "list[tuple] | Iterator[list]":
        """Slot rows of one plan run, batch-kernelled when possible.

        The planner's multi-head/negative-head emit path: unlike the
        generator flavor its consumer never mutates the database while
        draining, so under the columnar tier the whole run comes back
        as one materialized list from a ``walk_batch_*`` kernel.  Plans
        or variants without a batch shape fall back to ``_run``.
        """
        if PlanCache.columnar:
            fns = self.codegen_fns
            if fns is None:
                fns = self.codegen_fns = CodegenPlan(self)
            rows = fns.run_walk_batch(db, adom, restricted_index, restricted)
            if rows is not None:
                return rows
        return self._run(db, adom, restricted_index, restricted)

    def _run(
        self,
        db: Database,
        adom: tuple[Hashable, ...],
        restricted_index: int,
        restricted: frozenset[tuple] | None,
        seed: tuple[Hashable, ...] | None = None,
    ) -> Iterator[list]:
        """The generated backtracking walk, as a generator of slot lists.

        Every generator consumer funnels through here
        (``iter_slot_matches``, ``iter_restricted``, ``iter_seeded``,
        the fallback of ``run_rows``).
        """
        fns = self.codegen_fns
        if fns is None:
            fns = self.codegen_fns = CodegenPlan(self)
        return fns.run(db, adom, restricted_index, restricted, seed)

    def run_emit(
        self,
        db: Database,
        adom: tuple[Hashable, ...],
        restricted_index: int,
        restricted: frozenset[tuple] | None,
        out: set,
    ) -> int:
        """One run fused with single-positive-head emission.

        The planner's hottest call: rules with one positive head (the
        overwhelmingly common shape) would otherwise resume the
        ``_run`` generator once per matched row; the fused generated
        variants bake the head template in and add each
        ``(relation, fact)`` to ``out`` in the walk's own frame.  Only
        for plans with one positive head and no ``bound`` variables.
        Under the columnar tier the dispatch prefers the
        ``emit_batch_*`` kernels; variants without a batch shape fall
        back to the scalar fused walk inside ``run_emit_batch``.
        Returns the number of matches (firings).
        """
        fns = self.codegen_fns
        if fns is None:
            fns = self.codegen_fns = CodegenPlan(self)
        if PlanCache.columnar:
            return fns.run_emit_batch(
                db, adom, restricted_index, restricted, out
            )
        return fns.run_emit(db, adom, restricted_index, restricted, out)


def plan_for(
    rule: Rule,
    order: tuple[int, ...],
    bound: tuple[Var, ...] = (),
) -> RulePlan:
    """The compiled plan for ``rule`` under one join order (cached).

    ``order`` is the chosen permutation as indices into
    ``rule.positive_body()``; each distinct order compiles once per
    rule and is then selected in O(1) by later stages.  ``bound`` names
    caller-seeded variables (see :meth:`RulePlan.iter_seeded`); bound
    plans are cached alongside the unbound ones under a composite key.
    """
    per_rule = getattr(rule, _RULE_PLANS, None)
    if per_rule is None:
        per_rule = _attach_plans(rule)
    key = order if not bound else (order, bound)
    plan = per_rule.get(key)
    if plan is None:
        plan = per_rule[key] = RulePlan(rule, order, bound)
    return plan


def _attach_plans(rule: Rule) -> _RulePlans:
    """Give a rule seen for the first time its (shared or new) plans."""
    shared = PlanCache._shared.get(rule)
    per_rule = shared() if shared is not None else None
    if per_rule is None:
        per_rule = _RulePlans()
        PlanCache._shared[rule] = ref(per_rule)
    # Rules are frozen dataclasses; the cache is not one of their fields,
    # so equality and hashing never see it.
    object.__setattr__(rule, _RULE_PLANS, per_rule)
    PlanCache._owners[id(rule)] = rule
    return per_rule


def plan_with_cover(
    plan: RulePlan,
    assign: dict[tuple[str, frozenset[int]], tuple[tuple[int, ...], int]],
) -> RulePlan:
    """A twin of ``plan`` whose index probes go through shared chains.

    ``assign`` is the planner's minimal-cover assignment: (relation,
    key-position set) → (chain column order, probe depth).  Steps with
    no assignment — full scans and fully-bound membership probes — are
    shared with the original plan unchanged; the cached original itself
    is never mutated, because seeded engines and planner-off runs keep
    executing it against flat indexes.

    Twins are memoized on the base plan keyed by the applied per-step
    chain specs: planner contexts are per-evaluation, and rebuilding a
    twin each run would recompile its codegen functions each run too.
    The memo shares the plan cache's lifecycle (cleared together,
    replaced together on replans that change the order).
    """
    specs = tuple(
        assign.get((step.relation, frozenset(step.key_positions)))
        if step.key_positions and not step.exact
        else None
        for step in plan.steps
    )
    if not any(spec is not None for spec in specs):
        return plan
    twins = plan.cover_twins
    if twins is None:
        twins = plan.cover_twins = {}
    cached = twins.get(specs)
    if cached is not None:
        return cached
    steps: list[Step] = []
    for step, spec in zip(plan.steps, specs):
        if spec is None:
            steps.append(step)
            continue
        order, depth = spec
        clone = Step.__new__(Step)
        clone.relation = step.relation
        clone.key_positions = step.key_positions
        clone.key_template = step.key_template
        clone.key_fills = step.key_fills
        clone.binds = step.binds
        clone.withins = step.withins
        clone.exact = step.exact
        clone.chain_order = order
        clone.chain_depth = depth
        # The built key lists values in position order; the chain wants
        # them in column order.
        clone.chain_perm = tuple(
            step.key_positions.index(order[d]) for d in range(depth)
        )
        steps.append(clone)
    twin = RulePlan.__new__(RulePlan)
    for name in RulePlan.__slots__:
        setattr(twin, name, getattr(plan, name))
    twin.steps = tuple(steps)
    # The slot copy above carried the base plan's generated functions,
    # which probe flat indexes — stale for a chain-probing twin.  Reset
    # so the twin compiles its own (the cache-coherence contract).
    twin.codegen_fns = None
    twin.cover_twins = None
    twins[specs] = twin
    return twin
