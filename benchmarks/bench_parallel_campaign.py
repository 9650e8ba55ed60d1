"""Serial vs parallel campaign execution throughput (traces/sec).

Runs the ``ci``-scale fault-injection grid (2 patients x 42 scenarios)
in-process and through process pools of 2 and 4 workers,
reporting traces/sec for each.  A final test asserts that the parallel
trace stream is element-wise identical to the serial one, and — on
machines with at least 4 cores — that 4 workers deliver at least a 2.5x
speedup.

Run:  pytest benchmarks/bench_parallel_campaign.py --benchmark-only -s
"""

import dataclasses
import os
import time

import numpy as np
import pytest

from repro.experiments import ExperimentConfig
from repro.fi import CampaignConfig, generate_campaign
from repro.simulation import controller_profile, run_campaign
from repro.patients import make_patient

CONFIG = ExperimentConfig.preset("ci")
SCENARIOS = generate_campaign(CampaignConfig(stride=CONFIG.stride))
N_TRACES = len(CONFIG.patients) * len(SCENARIOS)


def _warm_profiles():
    """Titrate controller profiles up front so forked workers inherit them
    and every timed run measures pure campaign throughput."""
    for pid in CONFIG.patients:
        controller_profile(make_patient(CONFIG.platform, pid))


def _run(workers):
    return run_campaign(CONFIG.platform, CONFIG.patients, SCENARIOS,
                        n_steps=CONFIG.n_steps, workers=workers)


def _timed(workers):
    start = time.perf_counter()
    traces = _run(workers)
    elapsed = time.perf_counter() - start
    return traces, elapsed


def _report(name, elapsed):
    print(f"\n{name}: {N_TRACES} traces in {elapsed:.2f}s "
          f"({N_TRACES / elapsed:.1f} traces/sec)")


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_campaign_throughput(benchmark, workers):
    _warm_profiles()
    traces = benchmark.pedantic(_run, args=(workers,), rounds=1, iterations=1)
    assert len(traces) == N_TRACES
    if benchmark.stats is not None:  # absent under --benchmark-disable
        _report(f"workers={workers}", benchmark.stats.stats.mean)


def test_parallel_parity_and_speedup():
    """4-worker output is byte-identical to serial; on >=4 cores it must
    also be at least 2.5x faster."""
    _warm_profiles()
    serial, t_serial = _timed(1)
    parallel, t_parallel = _timed(4)
    _report("serial", t_serial)
    _report("4 workers", t_parallel)
    print(f"speedup: {t_serial / t_parallel:.2f}x")

    assert len(serial) == len(parallel) == N_TRACES
    for s, p in zip(serial, parallel):
        assert (s.platform, s.patient_id, s.label, s.fault) == \
               (p.platform, p.patient_id, p.label, p.fault)
        for f in dataclasses.fields(s):
            v = getattr(s, f.name)
            if isinstance(v, np.ndarray):
                assert np.array_equal(v, getattr(p, f.name)), f.name

    cores = os.cpu_count() or 1
    if cores >= 4:
        assert t_serial / t_parallel >= 2.5, (
            f"expected >=2.5x speedup at 4 workers on {cores} cores, "
            f"got {t_serial / t_parallel:.2f}x")
    else:
        print(f"(speedup assertion skipped: only {cores} core(s))")
