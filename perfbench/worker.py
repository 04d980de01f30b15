"""One workload in a fresh interpreter: set-up, then the timed loop.

``run.py`` starts this as ``python3 -m perfbench.worker MODE WORKLOAD
SEED SECONDS [FIRST_OP]`` with the repository's ``src`` on
``PYTHONPATH``.  MODE is

* ``measure`` — set up, then the untraced closed loop from operation
  FIRST_OP on; reports each operation's time and fact count;
* ``trace``   — set up and loop with layer wrappers installed on every
  other pair of operations; reports the per-layer metrics, derived
  from the spans, and writes the spans under ``perfbench/out``.

The last line of output is one JSON object.  One client, no threads:
each operation starts when the previous one has been checked.
"""

from __future__ import annotations

import glob
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

from perfbench import speed, trace

OUT_DIR = os.path.join("perfbench", "out")
#: ``peak_rss_mb`` is read after this many operations of an interpreter.
#: ``cold_programs`` keeps memory for every program it has run, so a
#: peak read at the end would grow with the operations the host's speed
#: let the run complete.
RSS_OPS = 16


class TierError(RuntimeError):
    """The run is not measuring the production tier as it ships."""


def check_defaults() -> None:
    """The default tier flags: columnar matcher, planner on."""
    from repro.semantics.codegen import CodegenPlan
    from repro.semantics.plan import PlanCache, active_matcher
    from repro.semantics.planner import QueryPlanner

    flags = (PlanCache.compiled_plans, PlanCache.codegen, PlanCache.columnar,
             QueryPlanner.enabled, not CodegenPlan.subtract_known)
    if not all(flags) or active_matcher() != "columnar":
        raise TierError(f"tier flags changed from the defaults: {flags}")


def check_stats(stats) -> None:
    """The run used the columnar tier and no persisted planner stats."""
    if stats.matcher != "columnar":
        raise TierError(f"run used the {stats.matcher!r} matcher")
    if stats.planner and stats.planner.get("measured_stats"):
        raise TierError("planner read measured stats from a store")


def stats_stores() -> set[str]:
    return set(glob.glob("**/*.stats.json", recursive=True))


def traced(i: int) -> bool:
    """Whether operation ``i`` runs under the wrappers (trace mode).

    Operations come in traced and untraced pairs, and the pattern flips
    every eight operations, so each cold family and each update kind
    runs traced as often as untraced.
    """
    return (i // 2 + i // 8) % 2 == 0


def closed_loop(workload, seconds: float, patches=None, first: int = 0,
                calibrator=None):
    """Run operations until ``seconds`` have passed; returns the samples.

    The run's length is wall time; each operation is timed with
    ``trace.clock``, the process's CPU time.

    With ``patches`` (trace mode) the operations ``traced`` selects run
    under the layer wrappers.  An operation that raises or answers
    wrongly counts as failed and keeps its latency in the sample.
    Operations are numbered from ``first``.  A ``speed.Calibrator``
    times its kernel between operations, outside their timings.
    """
    samples = []
    failed = 0
    started = perf_counter()
    i = first
    while perf_counter() - started < seconds:
        op = workload.make_op(i)
        trace_this = patches is not None and traced(i)
        if trace_this:
            patches.install()
        ok = True
        t0 = trace.clock()
        try:
            if trace_this:
                result = patches.recorder.time_op(i, workload.run, op)
            else:
                result = workload.run(op)
        except Exception as exc:  # counted as a failure, never dropped
            result, ok = None, False
            print(f"op {i} raised {type(exc).__name__}: {exc}",
                  file=sys.stderr)
        elapsed = trace.clock() - t0
        if trace_this:
            patches.uninstall()
        counters = {}
        if result is not None:
            check_stats(result.stats)
            ok = workload.check(op, result) is not False
            counters = workload.counters(op, result)
            if not ok:
                print(f"op {i} ({op.kind}) answered wrongly", file=sys.stderr)
        counters["memory.peak_rss_mb"] = peak_rss_mb()
        failed += not ok
        samples.append(trace.Sample(i, op.kind, elapsed,
                                    result.facts if result else 0,
                                    trace_this, counters))
        if calibrator is not None:
            calibrator.after_op(elapsed)
        i += 1
    if workload.final_check() is False:
        failed += 1
        print("final answer check failed", file=sys.stderr)
    return samples, failed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(samples, rss_mb: float) -> dict:
    """The end-to-end metrics of (seconds, facts) operation samples."""
    latencies = [seconds * 1000 for seconds, _facts in samples]
    busy = sum(seconds for seconds, _facts in samples)
    return {
        "op_ms.p50": statistics.median(latencies),
        "op_ms.p90": trace.percentile(latencies, 90),
        "ops_per_s": len(samples) / busy,
        "facts_per_s": sum(facts for _seconds, facts in samples) / busy,
        "peak_rss_mb": rss_mb,
    }


def main(argv: list[str]) -> int:
    mode, name, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    first = int(argv[4]) if len(argv) > 4 else 0
    stores_before = stats_stores()

    started = trace.clock()
    import repro  # noqa: F401 -- the fresh-interpreter import is set-up
    import_s = trace.clock() - started

    from perfbench import workloads
    from repro.semantics.plan import active_matcher

    workload = workloads.WORKLOADS[name](seed)
    check_defaults()
    patches = None
    started = trace.clock()
    if mode == "trace":
        patches = trace.Patches(trace.Recorder())
        patches.install()
        patches.recorder.time_op("setup", workload.setup)
        patches.uninstall()
    else:
        workload.setup()
    setup_s = import_s + trace.clock() - started
    calibrator = None
    if mode != "trace":
        calibrator = speed.Calibrator()
        calibrator.run(speed.WINDOW)

    out = {
        "setup_s": setup_s,
        "provenance": {
            "python": platform.python_version(),
            "matcher": active_matcher(),
            "sizes": workload.sizes,
        },
    }
    samples, failed = closed_loop(workload, seconds, patches, first,
                                  calibrator)
    check_defaults()
    out.update(attempted=len(samples), failed=failed)
    if mode == "measure":
        # run.py pools the samples of several interpreters.
        out["samples"] = [
            (s.seconds, s.facts, factor)
            for s, factor in zip(samples, calibrator.op_factors())]
        out["setup_factor"] = calibrator.factor(0)
        out["peak_rss_mb"] = samples[
            min(len(samples), RSS_OPS) - 1].counters["memory.peak_rss_mb"]
    else:
        leftover = trace.leftover_wrappers()
        if leftover:
            raise RuntimeError(f"wrappers survived the run: {leftover}")
        out["metrics"] = trace.layer_metrics(patches.recorder, samples)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{name}-{seed}.json")
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": patches.recorder.spans}, fh)
        out["spans_file"] = path
    if stats_stores() != stores_before:
        raise TierError("a planner stats store was written during the run")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
