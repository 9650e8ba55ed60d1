"""The repository benchmark: paper-reproduction wall time and per-tick
serving cost, with a traced run that breaks them down by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for sizes and why each was chosen):
``repro_ci``, ``campaign_small``, ``serve_stateless``, ``serve_stateful``.

Every repetition runs in a fresh interpreter (``workloads.py``), with
``REPRO_WORKERS``/``REPRO_BATCH_SIZE`` unset so the library's default
knobs apply, and BLAS threads capped at the CPU count.  Repetitions
repeat until ``--seconds`` of measured time has passed (at least one);
extra set-up-only interpreters bring the set-up samples to
``SETUP_SAMPLES``.  Medians over repetitions are reported.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json;
``--trace 1`` runs one untraced and one traced repetition and prints the
per-layer metrics, including ``trace.overhead``.  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--record`` writes the repetition's output digests to reference.json
instead of checking against them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

ROOT = workloads.ROOT
BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")
#: a run must exit within 180 s; stop starting repetitions after this
DEADLINE_S = 165.0
BUILD_TIMEOUT_S = 800.0
SETUP_SAMPLES = 3
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """A repetition could not run; no result may be printed."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    # "default knobs" means the library's defaults, not the caller's shell
    env.pop("REPRO_WORKERS", None)
    env.pop("REPRO_BATCH_SIZE", None)
    for var in BLAS_THREAD_VARS:
        env[var] = str(os.cpu_count() or 1)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = workloads.SRC
    return env


def spawn(args: List[str], timeout: float) -> dict:
    """Run ``workloads.py`` with *args*; its parsed result, plus the
    ``spawned`` monotonic time set-up is measured from."""
    command = [sys.executable, os.path.join(HERE, "workloads.py"), *args]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(command, cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(args)} timed out after "
                         f"{exc.timeout:.0f}s") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError(f"{' '.join(args)} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{' '.join(args)} printed no result")
    result = json.loads(lines[-1])
    result["spawned"] = spawned
    return result


def setup_seconds(result: dict) -> float:
    """Interpreter start to first timed operation, in nominal-host seconds."""
    return (result["first_op"] - result["spawned"]) / result["setup_speed"]


def rep_metrics(result: dict) -> Dict[str, float]:
    steps = np.asarray(result["steps_ms"], dtype=float)
    # nearest rank: a percentile is always one measured step, never an
    # interpolation between two different stages of a batch workload
    p50, p90 = np.percentile(steps, [50, 90], method="inverted_cdf")
    return {
        "wall_s": result["wall_s"],
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "ops_per_s": result["ops"] / result["wall_s"],
        "step_p50_ms": float(p50),
        "step_p90_ms": float(p90),
        "rss_growth_mb": result["rss_growth_kb"] / 1024.0,
    }


def measure(workload: str, seed: int, seconds: float, deadline: float):
    """Untraced repetitions; returns (metrics, reps)."""
    base = ["--workload", workload, "--seed", str(seed)]
    reps: List[dict] = []
    measured = 0.0
    while not reps or measured < seconds:
        started = time.monotonic()
        if reps and started + last_elapsed > deadline:
            break
        reps.append(spawn(base + ["--mode", "measure"],
                          deadline - started))
        last_elapsed = time.monotonic() - started
        measured += reps[-1]["raw_wall_s"]
    setups = [setup_seconds(r) for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_seconds(spawn(
            base + ["--mode", "setup"], deadline - time.monotonic())))
    per_rep = [rep_metrics(r) for r in reps]
    metrics = {name: statistics.median(m[name] for m in per_rep)
               for name in per_rep[0]}
    metrics["setup_s"] = statistics.median(setups)
    return metrics, reps


def trace(workload: str, seed: int, deadline: float):
    """One untraced twin and one traced repetition; returns (metrics, reps)."""
    base = ["--workload", workload, "--seed", str(seed)]
    twin = spawn(base + ["--mode", "measure"], deadline - time.monotonic())
    traced = spawn(base + ["--mode", "trace"], deadline - time.monotonic())
    overhead = traced["wall_s"] / twin["wall_s"] - 1.0
    metrics = dict(traced["layer"])
    metrics["trace.overhead"] = overhead
    # raw, like the span self times that add up to it
    metrics["trace.wall_s"] = traced["raw_wall_s"]
    return metrics, [twin, traced]


def record(workload: str, seed: int, reps: List[dict]) -> None:
    """Store the digests of *reps* as the reference outputs."""
    reference = {}
    if os.path.exists(workloads.REFERENCE_PATH):
        with open(workloads.REFERENCE_PATH, encoding="utf-8") as fh:
            reference = json.load(fh)
    digests = reps[-1]["digests"]
    if workload == "repro_ci":
        key = str(seed % workloads.REPRO_SEEDS)
        reference.setdefault(workload, {}).setdefault(key, {}).update(digests)
    else:
        reference.setdefault(workload, {}).update(digests)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write output digests to reference.json")
    args = parser.parse_args(argv)

    start = time.monotonic()
    if not os.path.isdir(os.path.join(workloads.SRC, "repro")):
        print(f"perfbench: no library sources under {workloads.SRC}",
              file=sys.stderr)
        return 2
    with open(BENCHMARK_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2

    try:
        if (args.workload in workloads.SERVE
                and not os.path.exists(workloads.models_path())):
            spawn(["--mode", "build"], BUILD_TIMEOUT_S)
            start = time.monotonic()  # the one-time build is not a run
        deadline = start + DEADLINE_S
        if args.trace:
            measured, reps = trace(args.workload, args.seed, deadline)
            wanted = spec["per_layer"]
        else:
            measured, reps = measure(args.workload, args.seed, args.seconds,
                                     deadline)
            wanted = spec["end_to_end"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.record:
        record(args.workload, args.seed, reps)

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    env = reps[-1]["env"]
    print(f"perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace} repetitions={len(reps)} nproc={env['nproc']} "
          f"numpy={env['numpy']} blas={env['blas']} "
          f"blas_threads={env['blas_threads']}")
    metrics = {}
    for entry in wanted:
        value = float(measured.get(entry["name"], 0.0))
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']:<36} {value:>16.6g} {entry['unit']}")
    if not args.trace:
        raw_wall = statistics.median(r["raw_wall_s"] for r in reps)
        slowdown = statistics.median(r["speed"] for r in reps)
        print(f"  ({len(reps[0]['steps_ms'])} timed steps per repetition; "
              f"raw wall_s {raw_wall:.6g} at host slowdown {slowdown:.4g} "
              "against nominal)")
    print(f"  failed_frac {failed / max(attempted, 1):.6f} "
          f"({failed} of {attempted} operations)")
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
