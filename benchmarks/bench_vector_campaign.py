"""Lock-step campaign throughput (traces/sec) against batches of one.

Runs the ``ci``-scale fault-injection grid (2 patients x 42 scenarios)
with every run alone in a lock-step batch of one (the reference) and
through the lock-step engine at several ``LOCKSTEP_WIDTH`` values,
reporting traces/sec for each.  A final test asserts that the engine's
trace stream (at the default width) is element-wise identical to the
reference one and — the acceptance bar for the engine — at least 5.7x
faster (the former 3x bar over the retired single-run loop, times the
measured width-1/single-run time ratio of 1.91 on this grid).

Measured on the CI container (see docs/vectorized_engine.md for the
current numbers); a 2-worker pool stacks on top, because each pool chunk
is exactly one lock-step batch, the same batch a serial run takes.

Run:  pytest benchmarks/bench_vector_campaign.py --benchmark-only -s
"""

import dataclasses
import time

import numpy as np
import pytest

import repro.parallel
from conftest import reference_campaign
from repro.experiments import ExperimentConfig
from repro.fi import CampaignConfig, generate_campaign
from repro.simulation import run_campaign, warm_profiles

CONFIG = ExperimentConfig.preset("ci")
SCENARIOS = generate_campaign(CampaignConfig(stride=CONFIG.stride))
N_TRACES = len(CONFIG.patients) * len(SCENARIOS)


def _run(workers=1):
    return run_campaign(CONFIG.platform, CONFIG.patients, SCENARIOS,
                        n_steps=CONFIG.n_steps, workers=workers)


def _timed(fn, *args):
    warm_profiles(CONFIG.platform, CONFIG.patients)
    start = time.perf_counter()
    traces = fn(*args)
    return traces, time.perf_counter() - start


def _reference():
    return reference_campaign(CONFIG.platform, CONFIG.patients, SCENARIOS,
                              CONFIG.n_steps)


def _report(name, elapsed):
    print(f"\n{name}: {N_TRACES} traces in {elapsed:.2f}s "
          f"({N_TRACES / elapsed:.1f} traces/sec)")


def _assert_identical(reference, traces):
    assert len(reference) == len(traces) == N_TRACES
    for s, v in zip(reference, traces):
        assert (s.platform, s.patient_id, s.label, s.fault) == \
               (v.platform, v.patient_id, v.label, v.fault)
        for f in dataclasses.fields(s):
            value = getattr(s, f.name)
            if isinstance(value, np.ndarray):
                assert np.array_equal(value, getattr(v, f.name)), f.name


@pytest.mark.parametrize("width", [1, 8, 16, 32, 84])
def test_vector_throughput(benchmark, monkeypatch, width):
    monkeypatch.setattr(repro.parallel, "LOCKSTEP_WIDTH", width)
    warm_profiles(CONFIG.platform, CONFIG.patients)
    traces = benchmark.pedantic(_run, rounds=1, iterations=1)
    assert len(traces) == N_TRACES
    if benchmark.stats is not None:  # absent under --benchmark-disable
        _report(f"width={width}", benchmark.stats.stats.mean)


def test_vector_parity_and_speedup():
    """The engine's output is element-wise identical to the width-1
    reference and at least 5.7x faster (the engine's acceptance bar)."""
    reference, t_reference = _timed(_reference)
    vector, t_vector = _timed(_run)
    _report("reference", t_reference)
    _report(f"width={repro.parallel.LOCKSTEP_WIDTH}", t_vector)
    print(f"speedup: {t_reference / t_vector:.2f}x")

    _assert_identical(reference, vector)
    assert t_reference / t_vector >= 5.7, (
        f"expected >=5.7x lock-step speedup, got "
        f"{t_reference / t_vector:.2f}x")


def test_vector_stacks_with_workers():
    """Lock-step batches inside pool chunks: still identical traces."""
    reference, _ = _timed(_reference)
    combo, t_combo = _timed(_run, 2)
    _report("2 workers", t_combo)
    _assert_identical(reference, combo)
