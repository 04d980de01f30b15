"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload runs in fresh interpreters (``perfbench/worker.py``)
with the repository's ``src`` on ``PYTHONPATH``.  With ``--trace 0``
several measuring interpreters share the ``--seconds``, each with its
own fixed hash seed and its own stretch of the operation stream, and
the end-to-end metrics of their pooled samples are printed; with
``--trace 1`` one traced interpreter runs and the per-layer metrics
are printed.  Each metric gets a line ``name value unit``; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Provenance and the full result are also written under
``perfbench/out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)
WORKLOADS = ("cold_programs", "warm_closure", "warm_components",
             "update_stream")
#: Measuring interpreters per untraced run; they share ``--seconds``.
MEASURE_RUNS = 5
#: Measuring interpreter ``j`` starts at operation ``j * OP_STRIDE``, so
#: the interpreters see different inputs.  A multiple of 16 keeps every
#: workload's rotation of operation kinds in step.
OP_STRIDE = 1 << 20
#: Whole-run budget: a run must end within 180 s.
BUDGET_S = 170.0

def source_digest() -> str:
    """sha256 over the program's source files (the checkout has no git)."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


class Runner:
    """Starts worker interpreters within the run's time budget."""

    def __init__(self, seed: int):
        self.seed = seed
        self.deadline = time.monotonic() + BUDGET_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src"), ROOT]
            + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def run(self, args: list[str], hash_seed: int = 0) -> str:
        """Run one interpreter; ``hash_seed`` fixes its str hashing.

        Set and dict layouts, and so the engine's speed, depend on the
        hash seed.  Every run uses the same seeds, one per interpreter,
        so runs differ only in their inputs.
        """
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError("time budget exhausted")
        env = dict(self.env, PYTHONHASHSEED=str(hash_seed))
        done = subprocess.run(
            [sys.executable] + args, cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=remaining,
        )
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise RuntimeError(f"{' '.join(args)} exited {done.returncode}")
        return done.stdout

    def worker(self, mode: str, workload: str, seconds: float,
               job: int = 0) -> dict:
        out = self.run(["-m", "perfbench.worker", mode, workload,
                        str(self.seed), repr(seconds), str(job * OP_STRIDE)],
                       hash_seed=job + 1)
        return json.loads(out.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = spec["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in names}
    runner = Runner(seed)
    # Untimed: compiles bytecode caches so no timed import pays for it.
    runner.run(["-c", "import repro, perfbench.workloads"])
    if trace:
        result = runner.worker("trace", workload, seconds)
    else:
        from perfbench.worker import end_to_end

        parts = [runner.worker("measure", workload, seconds / MEASURE_RUNS,
                               job)
                 for job in range(MEASURE_RUNS)]
        rss = max(part["peak_rss_mb"] for part in parts)
        result = {
            "provenance": parts[0]["provenance"],
            "attempted": sum(part["attempted"] for part in parts),
            "failed": sum(part["failed"] for part in parts),
            "setup_factors": [part["setup_factor"] for part in parts],
            # The metrics as measured, before scaling to the reference
            # speed (``perfbench/speed.py``).
            "unscaled_metrics": end_to_end(
                [(seconds, facts) for part in parts
                 for seconds, facts, _factor in part["samples"]], rss),
        }
        result["unscaled_metrics"]["setup_s"] = statistics.median(
            part["setup_s"] for part in parts)
        result["metrics"] = end_to_end(
            [(seconds * factor, facts) for part in parts
             for seconds, facts, factor in part["samples"]], rss)
        result["metrics"]["setup_s"] = statistics.median(
            part["setup_s"] * part["setup_factor"] for part in parts)
    if set(result["metrics"]) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(result['metrics']) ^ set(units))}")
    result["metrics"] = {
        name: {"value": value, "unit": units[name]}
        for name, value in sorted(result["metrics"].items())
    }
    result["provenance"].update(
        workload=workload, seed=seed, seconds=seconds, trace=int(trace),
        nproc=os.cpu_count(), git_sha=git_sha(), source_sha256=source_digest(),
        platform=platform.platform(), clock="process_time",
        measure_interpreters=0 if trace else MEASURE_RUNS,
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A termination request unwinds through subprocess.run, which kills
    # and waits for the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except (OSError, RuntimeError, subprocess.TimeoutExpired,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    os.makedirs(os.path.join(ROOT, "perfbench", "out"), exist_ok=True)
    path = os.path.join(
        ROOT, "perfbench", "out",
        f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    failed = result["failed"]
    print(f"failed_frac {failed / result['attempted']!r} ratio "
          f"({failed} of {result['attempted']} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
