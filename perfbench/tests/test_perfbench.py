"""Smoke tests of the benchmark itself: ``python3 -m pytest perfbench/tests``.

Most tests drive the workloads in-process with a short closed loop; one
runs the command end to end on the cheapest workload.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import gc  # noqa: E402

from perfbench import speed, trace, worker, workloads  # noqa: E402
from repro.semantics.plan import matcher_override  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
NAMES = [w["name"] for w in SPEC["workloads"]]
#: A loop this short still runs a few operations of every workload.
SMOKE_S = 0.3


def _ready(name: str, seed: int = 1):
    workload = workloads.WORKLOADS[name](seed)
    workload.setup()
    return workload


def _traced_loop(workload):
    patches = trace.Patches(trace.Recorder())
    samples, failed = worker.closed_loop(workload, SMOKE_S, patches)
    return patches.recorder, samples, failed


def test_spec_names_every_workload():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_every_metric_emitted(name):
    workload = _ready(name)
    samples, failed = worker.closed_loop(workload, SMOKE_S)
    assert samples and failed == 0
    metrics = worker.end_to_end([(s.seconds, s.facts) for s in samples],
                                worker.peak_rss_mb())
    metrics["setup_s"] = 1.0  # measured by run.py across interpreters
    assert set(metrics) == set(END_TO_END)
    assert all(value > 0 for value in metrics.values())

    recorder, samples, failed = _traced_loop(_ready(name))
    assert failed == 0 and any(s.traced for s in samples)
    assert set(trace.layer_metrics(recorder, samples)) == set(PER_LAYER)


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_answer_counts_as_failed(name, monkeypatch):
    workload = _ready(name)
    honest = workload.run
    calls = []

    def corrupt(op):
        result = honest(op)
        calls.append(op.index)
        if op.index == 0:
            relation = sorted(result.answer)[0]
            result.answer[relation] = frozenset([("not", "derived")])
        return result

    monkeypatch.setattr(workload, "run", corrupt)
    samples, failed = worker.closed_loop(workload, SMOKE_S)
    assert failed >= 1
    assert len(samples) == len(calls)  # the wrong answer keeps its latency


def test_raising_operation_counts_as_failed(monkeypatch):
    workload = _ready("warm_closure")
    honest = workload.run

    def flaky(op):
        if op.index == 1:
            raise RuntimeError("injected")
        return honest(op)

    monkeypatch.setattr(workload, "run", flaky)
    samples, failed = worker.closed_loop(workload, SMOKE_S)
    assert failed == 1
    assert samples[1].index == 1 and samples[1].seconds > 0


def test_update_stream_final_check_sees_the_view():
    workload = _ready("update_stream")
    assert workload.final_check() is True
    workload.engine.database.add_fact("T", ("u0", "nowhere"))
    assert workload.final_check() is False


@pytest.mark.parametrize("name", ["cold_programs", "update_stream"])
def test_spans_nest_and_self_times_fit(name):
    recorder, samples, _failed = _traced_loop(_ready(name))
    spans = recorder.spans
    selfs = trace.self_times(spans)
    assert all(end is not None and end >= start
               for _n, start, end, _p, _o in spans)
    for (_name, start, end, parent, op), own in zip(spans, selfs):
        assert own >= -1e-9
        if parent >= 0:
            _pn, p_start, p_end, _pp, p_op = spans[parent]
            assert p_start <= start and end <= p_end and p_op == op
    for s in samples:
        if not s.traced:
            continue
        mine = [i for i, span in enumerate(spans) if span[4] == s.index]
        (root,) = [i for i in mine if spans[i][0] == trace.ROOT]
        wall = spans[root][2] - spans[root][1]
        assert sum(selfs[i] for i in mine if i != root) <= wall + 1e-9
        assert wall <= s.seconds


def test_no_wrapper_survives_a_traced_run():
    originals = {}
    for _layer, sites in trace.TARGETS.values():
        for module_name, path in sites:
            owner, attr = trace.resolve(module_name, path)
            originals[(module_name, path)] = getattr(owner, attr)
    recorder, samples, _failed = _traced_loop(_ready("cold_programs"))
    assert any(s.traced for s in samples) and recorder.spans
    assert trace.leftover_wrappers() == []
    for (module_name, path), original in originals.items():
        owner, attr = trace.resolve(module_name, path)
        assert getattr(owner, attr) is original, path


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_inputs_and_answers(name):
    first, second, other = (workloads.WORKLOADS[name](seed)
                            for seed in (7, 7, 8))
    for workload in (first, second, other):
        workload.setup()

    def trail(workload):
        out = []
        for i in range(4):
            op = workload.make_op(i)
            result = workload.run(op)
            db = op.database.canonical() if op.database else None
            out.append((op.kind, op.payload, db, op.expected, result.answer))
        return out

    assert trail(first) == trail(second)
    assert trail(first) != trail(other)


def test_speed_factor_is_local_and_program_free():
    assert speed.kernel() == speed.kernel() > len(speed._EDGES)
    calibrator = speed.Calibrator()
    calibrator.run(2)
    assert gc.isenabled() and len(calibrator.times) == 2
    # Kernel calls at twice the reference time, then at the reference.
    calibrator.times = [2 * speed.REFERENCE_S] * 20 + [speed.REFERENCE_S] * 20
    assert calibrator.factor(0) == 0.5
    assert calibrator.factor(40) == 1.0
    # An operation's factor comes from the calls around its end only.
    calibrator.marks = [5, 40]
    assert calibrator.op_factors() == [0.5, 1.0]


def test_calibration_keeps_its_duty_share():
    calibrator = speed.Calibrator()
    calibrator.run(speed.WINDOW)
    for _ in range(200):
        calibrator.after_op(0.01)
    assert len(calibrator.marks) == 200
    assert calibrator.spent <= speed.DUTY * calibrator.busy + max(
        calibrator.times)


def test_tier_flags_checked():
    worker.check_defaults()
    with matcher_override("codegen"):
        with pytest.raises(worker.TierError):
            worker.check_defaults()


def test_command_prints_result_last(tmp_path):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold_programs",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == END_TO_END
    assert any(line.startswith("provenance ") for line in lines)


def test_command_fails_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "__init__.py"):
        (bench / name).write_text(
            open(os.path.join(ROOT, "perfbench", name)).read())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold_programs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
