"""Layer spans for the traced run, recorded from the benchmark's side.

``Patches(recorder).install()`` replaces each entry point in
``TARGETS`` with a wrapper at every place a caller looks it up (a
module global or a class attribute), and ``uninstall()`` puts the
originals back.  A wrapper records one span (name, start, end, parent,
operation) per call and, for a few entry points, the row or counter
deltas the call caused.
Wrappers sit only at batch granularity: per-tuple methods such as
``Relation.add`` are left alone, because wrapping them would slow the
run enough to change what it measures.

The program is not told it is being traced, so it keeps its default
columnar matcher; a ``repro.obs`` tracer would drop it to the
interpreted one.
"""

from __future__ import annotations

import importlib
import statistics
from collections import Counter
from time import process_time
from typing import NamedTuple

#: The clock every operation, set-up and span is timed with: the
#: process's CPU time.  The benchmark runs one single-threaded process,
#: so this is the time the program computes; unlike wall time, it
#: leaves out the time a shared host's scheduler gives other processes.
clock = process_time


class Sample(NamedTuple):
    """One operation of the closed loop, as the metrics need it."""

    index: int
    kind: str
    seconds: float
    facts: int
    traced: bool
    counters: dict


#: span name → (layer, [(module, attribute path), ...]).  Each pair is
#: one place a caller binds the entry point.
TARGETS = {
    "parse_program": ("parser", [("repro.parser", "parse_program")]),
    "validate_program": ("analysis", [
        ("repro.parser.parser", "validate_program"),
        ("repro.semantics.seminaive", "validate_program"),
        ("repro.semantics.stratified", "validate_program"),
        ("repro.semantics.wellfounded", "validate_program"),
        ("repro.semantics.differential", "validate_program"),
    ]),
    "infer_dialect": ("analysis", [("repro.ast.analysis", "infer_dialect")]),
    "plan_for": ("plan", [
        ("repro.semantics.planner", "plan_for"),
        ("repro.semantics.base", "plan_for"),
    ]),
    "plan_with_cover": ("plan", [
        ("repro.semantics.planner", "plan_with_cover"),
    ]),
    "compile_plan": ("codegen", [("repro.semantics.plan", "compile_plan")]),
    "consequences": ("planner", [("repro.semantics.planner", "consequences")]),
    "apply_cover": ("planner", [("repro.semantics.planner", "apply_cover")]),
    "add_batch": ("relational", [
        ("repro.relational.instance", "Relation.add_batch"),
    ]),
    "copy": ("relational", [("repro.relational.instance", "Database.copy")]),
    "evaluate_datalog_seminaive": ("semantics", [
        ("repro.semantics.seminaive", "evaluate_datalog_seminaive"),
    ]),
    "evaluate_stratified": ("semantics", [
        ("repro.semantics.stratified", "evaluate_stratified"),
    ]),
    "evaluate_wellfounded": ("semantics", [
        ("repro.semantics.wellfounded", "evaluate_wellfounded"),
    ]),
    "DifferentialEngine": ("differential", [
        ("repro.semantics.differential", "DifferentialEngine.__init__"),
    ]),
    "apply": ("differential", [
        ("repro.semantics.differential", "DifferentialEngine.apply"),
    ]),
    "immediate_consequences": ("differential", [
        ("repro.semantics.differential", "immediate_consequences"),
    ]),
}

LAYERS = ("parser", "analysis", "plan", "codegen", "planner", "relational",
          "semantics", "differential")

#: Planner-context counters read around each ``consequences`` call:
#: planner decisions have no public entry point of their own.
_PLANNER_COUNTERS = ("lookups", "hits", "replans", "adaptive_replans")

ROOT = "op"


class Recorder:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self):
        #: (name, start, end, parent index or -1, operation id)
        self.spans: list[tuple] = []
        self.counts: dict = {}
        self.op = None
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, clock(), None, parent, self.op))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self._stack.pop()
        name, start, _end, parent, op = self.spans[index]
        self.spans[index] = (name, start, clock(), parent, op)

    def count(self, key: str, n: int) -> None:
        self.counts.setdefault(self.op, Counter())[key] += n

    def time_op(self, op_id, fn, *args):
        """Run ``fn`` as operation ``op_id`` under a root span."""
        self.op = op_id
        index = self.open(ROOT)
        try:
            return fn(*args)
        finally:
            self.close(index)
            self.op = None


def resolve(module_name: str, path: str):
    """The object holding one entry point, and the attribute's name."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _wrap(recorder: Recorder, name: str, fn):
    open_, close = recorder.open, recorder.close

    if name == "add_batch":
        def wrapper(self, ts, *args, **kwargs):
            index = open_(name)
            try:
                fresh = fn(self, ts, *args, **kwargs)
            finally:
                close(index)
            recorder.count("relational.absorb_rows", len(ts))
            recorder.count("relational.fresh_rows", len(fresh))
            return fresh
    elif name == "consequences":
        from repro.semantics.planner import plan_context

        def wrapper(program, *args, **kwargs):
            ctx = plan_context(program)
            before = [getattr(ctx, key) for key in _PLANNER_COUNTERS]
            index = open_(name)
            try:
                return fn(program, *args, **kwargs)
            finally:
                close(index)
                for key, old in zip(_PLANNER_COUNTERS, before):
                    recorder.count(f"planner.{key}", getattr(ctx, key) - old)
    else:
        def wrapper(*args, **kwargs):
            index = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

    wrapper.perfbench_span = name
    return wrapper


class Patches:
    """The installed wrappers; ``uninstall`` restores every original."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.saved: list[tuple] = []

    def install(self) -> None:
        for name, (_layer, sites) in TARGETS.items():
            for module_name, path in sites:
                owner, attr = resolve(module_name, path)
                original = getattr(owner, attr)
                self.saved.append((owner, attr, original))
                setattr(owner, attr, _wrap(self.recorder, name, original))

    def uninstall(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)


def leftover_wrappers() -> list[str]:
    """Entry points that still hold a benchmark wrapper."""
    left = []
    for _layer, sites in TARGETS.values():
        for module_name, path in sites:
            owner, attr = resolve(module_name, path)
            if hasattr(getattr(owner, attr), "perfbench_span"):
                left.append(f"{module_name}.{path}")
    return left


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its child spans cover.

    The run is single-threaded, so a span's children never overlap
    one another and the covered part is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for _name, start, end, parent, _op in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i]
            for i, (_n, start, end, _p, _o) in enumerate(spans)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def percentile(values, q: int) -> float:
    """The q-th percentile (q a multiple of 10); 0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10)[q // 10 - 1]


def layer_metrics(recorder: Recorder, samples) -> dict:
    """Per-layer metrics of a traced run.

    ``samples`` are the closed loop's :class:`Sample` records.  A
    ``*share`` is self time over the traced operations' time, so a
    layer a workload bypasses reads 0 without posing as a measured
    time; ``differential.materialize_share`` is over the set-up's time
    instead.  Counts are means per traced operation; other ratios
    are taken over all traced operations.
    """
    spans = recorder.spans
    selfs = self_times(spans)
    ops = {s.index for s in samples if s.traced}
    n = len(ops)
    wall = setup_wall = materialize = 0.0
    layer_self: Counter = Counter()
    name_self: Counter = Counter()
    name_total: Counter = Counter()
    calls: Counter = Counter()
    for span, self_s in zip(spans, selfs):
        name, start, end, _parent, op = span
        if op == "setup":
            if name == ROOT:
                setup_wall += end - start
            elif name == "DifferentialEngine":
                materialize += end - start
            continue
        if op not in ops:
            continue
        if name == ROOT:
            wall += end - start
            continue
        layer_self[TARGETS[name][0]] += self_s
        name_self[name] += self_s
        name_total[name] += end - start
        calls[name] += 1
    counts: Counter = Counter()
    for s in samples:
        if s.traced:
            counts.update(s.counters)
            counts.update(recorder.counts.get(s.index, {}))
    traced_ms, untraced_ms = [], {"insert": [], "delete": [], "all": []}
    for s in samples:
        if s.traced:
            traced_ms.append(s.seconds * 1000)
        else:
            untraced_ms["all"].append(s.seconds * 1000)
            if s.kind in untraced_ms:
                untraced_ms[s.kind].append(s.seconds * 1000)

    def per_op(value: float) -> float:
        return _ratio(value, n)

    def share(value: float) -> float:
        return _ratio(value, wall)

    metrics = {f"{layer}.share": share(layer_self[layer]) for layer in LAYERS}
    for layer, names in (
        ("parser", ("parse_program",)),
        ("analysis", ("validate_program", "infer_dialect")),
        ("plan", ("plan_for", "plan_with_cover")),
    ):
        metrics[f"{layer}.calls"] = per_op(sum(calls[c] for c in names))
    metrics.update({
        "codegen.compiles": per_op(calls["compile_plan"]),
        "codegen.compiles_per_rule": _ratio(calls["compile_plan"],
                                            counts["rules"]),
        "planner.consequences.self_s": per_op(name_self["consequences"]),
        "planner.cover_share": share(name_self["apply_cover"]),
        "planner.consequence_calls": per_op(calls["consequences"]),
        "planner.plan_hit_ratio": _ratio(counts["planner.hits"],
                                         counts["planner.lookups"]),
        "planner.replans": per_op(counts["planner.replans"]),
        "planner.adaptive_replans": per_op(counts["planner.adaptive_replans"]),
        "relational.absorb_share": share(name_self["add_batch"]),
        "relational.absorb_rows": per_op(counts["relational.absorb_rows"]),
        "relational.fresh_ratio": _ratio(counts["relational.fresh_rows"],
                                         counts["relational.absorb_rows"]),
        "relational.copy_share": share(name_self["copy"]),
        "relational.index_builds": per_op(counts["relational.index_builds"]),
        "relational.index_updates": per_op(
            counts["relational.index_updates"]),
        "relational.index_drops": per_op(counts["relational.index_drops"]),
        "semantics.stages": per_op(counts["semantics.stages"]),
        "semantics.firings": per_op(counts["semantics.firings"]),
        "semantics.useful_ratio": _ratio(counts["semantics.added"],
                                         counts["semantics.firings"]),
        "differential.materialize_share": _ratio(materialize, setup_wall),
        "differential.apply_share": share(name_self["apply"]),
        "differential.consequences_share": share(
            name_total["immediate_consequences"]),
        "differential.facts_touched": per_op(
            counts["differential.facts_touched"]),
        "differential.touched_ratio": _ratio(
            counts["differential.facts_touched"],
            counts["differential.view_size"]),
        "differential.overdeleted": per_op(counts["differential.overdeleted"]),
        "differential.rederived": per_op(counts["differential.rederived"]),
        "differential.rederive_ratio": _ratio(
            counts["differential.rederived"],
            counts["differential.overdeleted"]),
        "differential.support_checks": per_op(
            counts["differential.support_checks"]),
        "differential.recounted": per_op(counts["differential.recounted"]),
        "trace.overhead_ratio": _ratio(percentile(traced_ms, 50),
                                       percentile(untraced_ms["all"], 50)),
    })
    for q in (50, 90):
        metrics[f"update.delete_over_insert.p{q}"] = _ratio(
            percentile(untraced_ms["delete"], q),
            percentile(untraced_ms["insert"], q))
    return metrics
