"""Distributed campaign coordinator overhead and scaling (traces/sec).

Runs the ``ci``-scale fault-injection grid (2 patients x 42 scenarios)
three ways — in-process serial, single distributed worker, and 2
distributed subprocess workers — reporting traces/sec and the
coordinator's fixed overhead (plan serialization, subprocess start-up,
polling, merge).  A final test asserts the distributed parity contract
on the benchmark grid: the merged manifest is byte-identical to the
single-box store and carries the plan fingerprint, including under an
injected mid-range worker kill + retry.

Run:  pytest benchmarks/bench_distributed.py --benchmark-only -s
"""

import os
import time

import pytest

from repro.distributed import FlakyLauncher, run_distributed_campaign
from repro.experiments import ExperimentConfig
from repro.fi import CampaignConfig, generate_campaign
from repro.parallel import partition_ranges
from repro.patients import make_patient
from repro.simulation import (CampaignExecutor, CampaignStoreWriter,
                              controller_profile, plan_campaign,
                              plan_fingerprint)

CONFIG = ExperimentConfig.preset("ci")
SCENARIOS = generate_campaign(CampaignConfig(stride=CONFIG.stride))
PLAN = plan_campaign(CONFIG.platform, CONFIG.patients, SCENARIOS,
                     n_steps=CONFIG.n_steps)
N_TRACES = len(PLAN.runs)


def _warm_profiles():
    for pid in CONFIG.patients:
        controller_profile(make_patient(CONFIG.platform, pid))


def _run_distributed(out_dir, n_hosts, **kwargs):
    return run_distributed_campaign(PLAN, out_dir, n_hosts=n_hosts,
                                    poll_interval_s=0.02, **kwargs)


def _report(name, elapsed):
    print(f"\n{name}: {N_TRACES} traces in {elapsed:.2f}s "
          f"({N_TRACES / elapsed:.1f} traces/sec)")


@pytest.mark.parametrize("n_hosts", [1, 2])
def test_distributed_throughput(benchmark, n_hosts, tmp_path):
    _warm_profiles()
    runs = [0]

    def run():
        out = str(tmp_path / f"out{runs[0]}")
        runs[0] += 1
        return _run_distributed(out, n_hosts)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.manifest["n_traces"] == N_TRACES
    if benchmark.stats is not None:  # absent under --benchmark-disable
        _report(f"n_hosts={n_hosts}", benchmark.stats.stats.mean)
        worker_wall = sum(s["wall_s"] for s in result.stats)
        overhead = benchmark.stats.stats.mean - worker_wall / n_hosts
        print(f"coordinator overhead ~{overhead:.2f}s "
              f"(workers spent {worker_wall:.2f}s total)")


def test_distributed_parity_with_retry(tmp_path):
    """Merged dataset equals the single-box store — fingerprint and
    manifest bytes — even with one worker hard-killed mid-range."""
    _warm_profiles()
    ref_dir = str(tmp_path / "reference")
    start = time.perf_counter()
    with CampaignStoreWriter(ref_dir, PLAN.platform, PLAN.n_steps) as sink:
        CampaignExecutor().run(PLAN, sink=sink)
    _report("single-box store write", time.perf_counter() - start)

    ranges = partition_ranges(N_TRACES, 2)
    launcher = FlakyLauncher(crash_ranges={ranges[0]: 2})
    start = time.perf_counter()
    result = _run_distributed(str(tmp_path / "merged"), 2, launcher=launcher)
    _report("2 hosts + injected kill/retry", time.perf_counter() - start)

    assert result.retries == 1
    assert result.manifest["fingerprint"] == plan_fingerprint(PLAN)
    ref = open(os.path.join(ref_dir, "manifest.json"), "rb").read()
    merged = open(os.path.join(result.out_dir, "manifest.json"), "rb").read()
    assert merged == ref
