"""CI benchmark-regression gate.

Runs a small *fixed* benchmark configuration — the ``ci``-scale grids behind
``benchmarks/bench_parallel_campaign.py``, ``bench_vector_campaign.py``,
``bench_vector_replay.py``, ``bench_vector_mitigation.py``,
``bench_serve.py`` and ``benchmarks/bench_table6_ml.py`` — and writes
``BENCH_<sha>.json`` with
per-benchmark wall time (plus the lock-step simulation, replay and
mitigation speedups over their references) and the process peak RSS.
The ``*_reference`` entries run every scenario or trace alone in a
lock-step batch of one (``LOCKSTEP_WIDTH = 1``); the ``*_vector`` entries
time the library's only execution path, the lock-step engine and replay
at ``LOCKSTEP_WIDTH``.  The measurements are then
compared against the committed ``benchmarks/BENCH_baseline.json``: any
benchmark more than ``TOLERANCE`` (25%) slower than its baseline, or peak
RSS more than 25% above it, fails the job.  The simulation, replay and
mitigation entries additionally enforce absolute floors:
``campaign_vector``, ``replay_vector`` and ``mitigation_vector`` must be
at least ``CAMPAIGN_SPEEDUP_FLOOR`` (5.7x), ``REPLAY_SPEEDUP_FLOOR``
(2.1x) and ``MITIGATION_SPEEDUP_FLOOR`` (9.4x) faster than their
references, whatever the baseline says.  ``replay_nn_vector`` (the
ci-scale trained MLP + LSTM, classified in stacked row-exact forwards) is
floored at ``NN_REPLAY_SPEEDUP_FLOOR`` (0.56x) over
``replay_nn_reference``; a BLAS that
fails the row-exactness probe of ``repro.ml.nn.model`` runs one row per
forward and trips it.  The ``search`` entry (the cross-entropy
scenario search of ``repro.search``) is gated the same way: timed
against the baseline and floored at ``SEARCH_EFFICIENCY_FLOOR`` (3x)
hazards-found-per-simulation relative to the fixed grid.  The ``serve``
entry drives the online monitor service with the deterministic load
generator and floors sustained throughput at ``SERVE_THROUGHPUT_FLOOR``
(10k user-ticks/sec — a 10k-user fleet served inside one tick), recording
the p99 tick latency alongside.  The ``serve_recovery`` entry re-runs
the same fleet with the write-ahead journal fsync'd, snapshots, and
recovers the service from disk: its wall time gates the snapshot +
recovery path, and the recorded journal overhead is capped at
``JOURNAL_OVERHEAD_CEILING`` (15% throughput loss vs journal-off) —
durability may not eat the serving headroom.  The JSON is uploaded as a
CI artifact either way, so every commit leaves a performance record.

The baseline is calibrated on the CI runner class; after an intentional
performance change (or a runner upgrade), refresh it with::

    python scripts/ci_bench.py --update-baseline

Run:  python scripts/ci_bench.py [--output BENCH_<sha>.json]
"""

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time

import repro.parallel
from repro.baselines import GuidelineMonitor, MPCMonitor
from repro.core import (FixedMitigator, cawot_monitor, cawt_monitor,
                        learn_thresholds)
from repro.experiments import ExperimentConfig
from repro.experiments.data import ml_monitors, platform_data
from repro.experiments.table6 import run_table6
from repro.fi import CampaignConfig, generate_campaign
from repro.ml import TrainingJob, run_training_jobs
from repro.search import CrossEntropySearch
from repro.serve import MonitorService, run_load
from repro.simulation import replay_campaign, run_campaign, warm_profiles

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE_PATH = os.path.join(REPO_ROOT, "benchmarks", "BENCH_baseline.json")

#: a benchmark may be this much slower than its committed baseline
TOLERANCE = 0.25

#: absolute scheduling-jitter allowance added on top of the fractional
#: tolerance — sub-second entries (the vectorized paths) would otherwise
#: gate on a few tens of milliseconds, which shared CI runners cannot
#: hold; their real guard is the speedup floor below
JITTER_SLACK_SECONDS = 0.25

#: absolute floor for the lock-step campaign speedup over the same grid at
#: LOCKSTEP_WIDTH 1: the former 3x bar over the retired single-run loop,
#: times the width-1/single-run time ratio measured on this grid (1.91,
#: median of 15 alternating runs on a 2-vCPU Xeon)
CAMPAIGN_SPEEDUP_FLOOR = 5.7

#: absolute floor for the batched-replay speedup over the same replay at
#: LOCKSTEP_WIDTH 1: the former 3x bar over the retired per-cycle
#: reference, times the width-1/per-cycle time ratio measured on this
#: grid (0.70, median of 15 alternating runs on a 2-vCPU Xeon)
REPLAY_SPEEDUP_FLOOR = 2.1

#: absolute floor for the batched mitigated-campaign speedup (Table VII
#: closed loop: monitor + mitigator in the lock-step engine) over
#: LOCKSTEP_WIDTH 1: the former 3x bar times the width-1/single-run ratio
#: on this grid (3.13, measured like the campaign floor's)
MITIGATION_SPEEDUP_FLOOR = 9.4

#: absolute floor for the batched MLP + LSTM replay speedup over
#: LOCKSTEP_WIDTH 1: the former 2x bar over per-cycle one-row forwards,
#: times the width-1/per-cycle ratio (0.28, measured like the replay
#: floor's)
NN_REPLAY_SPEEDUP_FLOOR = 0.56

#: ``*_vector`` entry -> (its reference entry, speedup floor)
SPEEDUP_FLOORS = {
    "campaign_vector": ("campaign_reference", CAMPAIGN_SPEEDUP_FLOOR),
    "replay_vector": ("replay_reference", REPLAY_SPEEDUP_FLOOR),
    "mitigation_vector": ("mitigation_reference", MITIGATION_SPEEDUP_FLOOR),
    "replay_nn_vector": ("replay_nn_reference", NN_REPLAY_SPEEDUP_FLOOR),
}

#: absolute floor for the scenario search's discovery efficiency:
#: hazards-per-simulation must beat the fixed grid's by at least this
#: ratio (the repro.search acceptance bar, see docs/scenario_search.md)
SEARCH_EFFICIENCY_FLOOR = 3.0

#: absolute floor for the online monitor service: one process must
#: sustain at least this many user-ticks per second of service time at
#: the 5-minute cadence — i.e. serve >= 10k users per tick — under the
#: deterministic load generator (see docs/monitor_service.md)
SERVE_THROUGHPUT_FLOOR = 10_000

#: fleet size the serve benchmark drives (== the floor: the gate checks
#: that a fleet of this size is served in under one tick interval)
SERVE_FLEET_SIZE = 10_000
SERVE_TICKS = 5

#: hard ceiling on the crash-safety tax: serving with the fsync'd
#: write-ahead journal may cost at most this fraction of journal-off
#: throughput (the same budget bench_serve.py asserts)
JOURNAL_OVERHEAD_CEILING = 0.15


def git_sha() -> str:
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        return subprocess.check_output(["git", "rev-parse", "HEAD"],
                                       cwd=REPO_ROOT, text=True).strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def peak_rss_mb() -> float:
    """Peak resident set size of this process (ru_maxrss is KiB on Linux,
    bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        peak /= 1024.0
    return peak / 1024.0


def at_width_one(fn):
    """``fn()`` with every run or trace alone in a lock-step batch of one
    (``LOCKSTEP_WIDTH = 1``)."""
    width = repro.parallel.LOCKSTEP_WIDTH
    repro.parallel.LOCKSTEP_WIDTH = 1
    try:
        return fn()
    finally:
        repro.parallel.LOCKSTEP_WIDTH = width


def reference_campaign(config, scenarios, monitor_factory=None,
                       mitigator=None) -> list:
    """The grid at ``LOCKSTEP_WIDTH = 1`` (traces in ``run_campaign``
    order)."""
    return at_width_one(lambda: run_campaign(
        config.platform, config.patients, scenarios,
        monitor_factory=monitor_factory, mitigator=mitigator,
        n_steps=config.n_steps))


def run_benchmarks() -> dict:
    """The fixed ``ci``-scale benchmark set, warmed and in a fixed order."""
    config = ExperimentConfig.preset("ci")
    # titrate controller profiles up front (one lock-step batch) so every
    # number below is steady-state throughput, not one-time setup cost
    warm_profiles(config.platform, config.patients)
    scenarios = generate_campaign(CampaignConfig(stride=config.stride))
    results = {}

    def timed(name, fn):
        start = time.perf_counter()
        out = fn()
        results[name] = {"seconds": round(time.perf_counter() - start, 3)}
        print(f"  {name}: {results[name]['seconds']}s", flush=True)
        return out

    def speedup(vector):
        reference = SPEEDUP_FLOORS[vector][0]
        ratio = round(results[reference]["seconds"]
                      / max(results[vector]["seconds"], 1e-9), 2)
        results[vector]["speedup_vs_reference"] = ratio
        print(f"  {reference} / {vector} speedup: {ratio}x", flush=True)

    n = len(config.patients) * len(scenarios)
    print(f"ci grid: {n} simulations", flush=True)
    timed("campaign_reference",
          lambda: reference_campaign(config, scenarios))
    traces = timed(
        "campaign_vector",
        lambda: run_campaign(config.platform, config.patients, scenarios,
                             n_steps=config.n_steps))
    speedup("campaign_vector")
    timed("campaign_workers2",
          lambda: run_campaign(config.platform, config.patients, scenarios,
                               n_steps=config.n_steps, workers=2))

    # batched monitor replay over the campaign just simulated: the Table V
    # monitor set plus a trained DT, width 1 vs the production width
    monitors = {
        "CAWT": cawt_monitor(learn_thresholds(traces).thresholds),
        "CAWOT": cawot_monitor(),
        "Guideline": GuidelineMonitor(),
        "MPC": MPCMonitor(horizon_steps=config.mpc_horizon),
        "DT": run_training_jobs([TrainingJob.make("dt")],
                                traces)[0].monitor,
    }
    timed("replay_reference",
          lambda: at_width_one(lambda: replay_campaign(monitors, traces)))
    timed("replay_vector", lambda: replay_campaign(monitors, traces))
    speedup("replay_vector")

    # mitigated closed loop (Table VII configuration): CAWOT monitor wired
    # to the fixed Algorithm 1 strategy, width 1 vs the production width
    mitigation_kwargs = dict(monitor_factory=lambda pid: cawot_monitor(),
                             mitigator=FixedMitigator())
    timed("mitigation_reference",
          lambda: reference_campaign(config, scenarios, **mitigation_kwargs))
    timed("mitigation_vector",
          lambda: run_campaign(config.platform, config.patients, scenarios,
                               n_steps=config.n_steps, **mitigation_kwargs))
    speedup("mitigation_vector")

    # cross-entropy scenario search (repro.search) on the lock-step engine:
    # gate both its wall time and its discovery efficiency against the
    # grid campaign measured above
    def run_searches():
        found = []
        for i, pid in enumerate(config.patients):
            search = CrossEntropySearch(platform=config.platform,
                                        patient_id=pid,
                                        n_steps=config.n_steps,
                                        population=32, iterations=6)
            found.append(search.run(seed=i))
        return found

    results_by_patient = timed("search", run_searches)
    grid_rate = sum(t.hazardous for t in traces) / len(traces)
    search_sims = sum(r.n_simulations for r in results_by_patient)
    search_hazards = sum(r.n_hazardous for r in results_by_patient)
    search_rate = search_hazards / max(search_sims, 1)
    ratio = round(search_rate / max(grid_rate, 1e-9), 2)
    results["search"]["hazards_per_1k"] = round(1000.0 * search_rate, 1)
    results["search"]["hazard_ratio_vs_grid"] = ratio
    print(f"  search efficiency: {results['search']['hazards_per_1k']} "
          f"hazards/1k sims, {ratio}x the grid", flush=True)

    # online monitor service: the stateless serving set (CAWT, CAWOT, DT
    # — all trained above) under the deterministic load generator; the
    # gate floors sustained user-ticks/sec at SERVE_THROUGHPUT_FLOOR and
    # tracks the p99 tick latency
    serve_monitors = {name: monitors[name] for name in ("CAWT", "CAWOT",
                                                        "DT")}
    service = MonitorService(serve_monitors)
    report = timed("serve", lambda: run_load(service, SERVE_FLEET_SIZE,
                                             SERVE_TICKS, seed=0))
    results["serve"]["users_per_sec"] = round(report.users_per_sec, 1)
    results["serve"]["p99_tick_ms"] = round(report.p99_tick_ms, 2)
    print(f"  serve: {report.summary()}", flush=True)

    # crash-safe serving: the same fleet with the fsync'd write-ahead
    # journal on, then the snapshot + recovery path; records the journal
    # overhead (gated at JOURNAL_OVERHEAD_CEILING) and times bringing a
    # 10k-user fleet back from disk.  Single 0.1s-scale runs see ±20%
    # scheduler jitter, so the overhead compares best-of-two per side.
    with tempfile.TemporaryDirectory() as tmp:
        plain_best = journaled_best = 0.0
        persisted = None
        state_dir = None
        for attempt in range(2):
            plain = run_load(MonitorService(serve_monitors),
                             SERVE_FLEET_SIZE, SERVE_TICKS, seed=0)
            plain_best = max(plain_best, plain.users_per_sec)
            if persisted is not None:
                persisted.close()
            state_dir = os.path.join(tmp, f"state{attempt}")
            persisted = MonitorService(serve_monitors,
                                       persist_dir=state_dir, fsync=True)
            journaled = run_load(persisted, SERVE_FLEET_SIZE, SERVE_TICKS,
                                 seed=0)
            journaled_best = max(journaled_best, journaled.users_per_sec)

        def snapshot_and_recover():
            persisted.snapshot()
            persisted.close()
            return MonitorService.recover(state_dir)

        recovered = timed("serve_recovery", snapshot_and_recover)
        assert recovered.n_users == SERVE_FLEET_SIZE
        overhead = round(1.0 - journaled_best / max(plain_best, 1e-9), 3)
        results["serve_recovery"]["journal_overhead"] = overhead
        results["serve_recovery"]["journaled_users_per_sec"] = round(
            journaled_best, 1)
        print(f"  journal overhead: {overhead:+.1%} "
              f"({journaled_best:,.0f} user-ticks/s journaled)",
              flush=True)

    # warm the shared experiment cache so the table6 number measures the
    # monitors (ML training jobs, threshold learning, replay) — the stage
    # this repo's training layer parallelises — not re-simulation
    data = platform_data(config)
    timed("table6_ml", lambda: run_table6(config))

    # batched NN replay: the ci-scale MLP + LSTM table6 just trained
    # (memoised), width 1 vs the production width
    trained = ml_monitors(data)
    nn = {name: trained[name] for name in ("MLP", "LSTM")}
    timed("replay_nn_reference",
          lambda: at_width_one(lambda: replay_campaign(nn, traces)))
    timed("replay_nn_vector", lambda: replay_campaign(nn, traces))
    speedup("replay_nn_vector")
    return results


def check_against_baseline(results: dict, peak_mb: float,
                           tolerance: float) -> list:
    """Return a list of human-readable regression descriptions."""
    if not os.path.exists(BASELINE_PATH):
        return [f"no committed baseline at {BASELINE_PATH}; run "
                "scripts/ci_bench.py --update-baseline and commit the result"]
    with open(BASELINE_PATH) as fh:
        baseline = json.load(fh)
    regressions = []
    for name, entry in baseline["benchmarks"].items():
        if name not in results:
            regressions.append(f"benchmark {name!r} in the baseline was not "
                               "measured — ci_bench.py and the baseline are "
                               "out of sync")
            continue
        allowed = entry["seconds"] * (1.0 + tolerance) + JITTER_SLACK_SECONDS
        measured = results[name]["seconds"]
        if measured > allowed:
            regressions.append(
                f"{name}: {measured}s exceeds baseline "
                f"{entry['seconds']}s by more than {tolerance:.0%} "
                f"+ {JITTER_SLACK_SECONDS}s jitter slack "
                f"(allowed {allowed:.2f}s)")
    allowed_rss = baseline["peak_rss_mb"] * (1.0 + tolerance)
    if peak_mb > allowed_rss:
        regressions.append(
            f"peak RSS {peak_mb:.1f} MB exceeds baseline "
            f"{baseline['peak_rss_mb']} MB by more than {tolerance:.0%} "
            f"(allowed {allowed_rss:.1f} MB)")
    # absolute floors, independent of the committed baseline: each
    # lock-step path must stay that many times faster than its reference
    for name, (reference, floor) in SPEEDUP_FLOORS.items():
        speedup = results.get(name, {}).get("speedup_vs_reference")
        if speedup is not None and speedup < floor:
            regressions.append(
                f"{name} speedup {speedup}x over {reference} is below the "
                f"{floor}x floor — the lock-step path has degenerated "
                "toward its reference's throughput")
    ratio = results.get("search", {}).get("hazard_ratio_vs_grid")
    if ratio is not None and ratio < SEARCH_EFFICIENCY_FLOOR:
        regressions.append(
            f"search hazard discovery is only {ratio}x the fixed grid's, "
            f"below the {SEARCH_EFFICIENCY_FLOOR}x floor — the "
            "cross-entropy loop has stopped out-hunting enumeration")
    users_per_sec = results.get("serve", {}).get("users_per_sec")
    if users_per_sec is not None and users_per_sec < SERVE_THROUGHPUT_FLOOR:
        regressions.append(
            f"serve throughput {users_per_sec:,.0f} user-ticks/s is below "
            f"the {SERVE_THROUGHPUT_FLOOR:,} floor — one service process "
            "can no longer hold a 10k-user fleet at the 5-minute cadence")
    overhead = results.get("serve_recovery", {}).get("journal_overhead")
    if overhead is not None and overhead > JOURNAL_OVERHEAD_CEILING:
        regressions.append(
            f"write-ahead journaling costs {overhead:.1%} of serve "
            f"throughput, over the {JOURNAL_OVERHEAD_CEILING:.0%} ceiling "
            "— durability is eating the serving headroom")
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=None,
                        help="result path (default: BENCH_<sha>.json)")
    parser.add_argument("--update-baseline", action="store_true",
                        help=f"write the measurements to {BASELINE_PATH} "
                             "instead of gating against it")
    parser.add_argument("--tolerance", type=float, default=TOLERANCE,
                        help="allowed fractional slowdown (default 0.25)")
    args = parser.parse_args(argv)

    sha = git_sha()
    results = run_benchmarks()
    peak_mb = round(peak_rss_mb(), 1)
    print(f"peak RSS: {peak_mb} MB", flush=True)
    doc = {
        "sha": sha,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "benchmarks": results,
        "peak_rss_mb": peak_mb,
    }

    output = args.output or os.path.join(os.getcwd(), f"BENCH_{sha}.json")
    with open(output, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    print(f"wrote {output}")

    if args.update_baseline:
        baseline = dict(doc)
        baseline.pop("sha")  # the baseline describes a config, not a commit
        with open(BASELINE_PATH, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"updated {BASELINE_PATH}")
        return 0

    regressions = check_against_baseline(results, peak_mb, args.tolerance)
    if regressions:
        print("\nFAIL: benchmark regression(s) vs committed baseline:")
        for line in regressions:
            print(f"  - {line}")
        return 1
    print(f"\nOK: all benchmarks within {args.tolerance:.0%} of the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
