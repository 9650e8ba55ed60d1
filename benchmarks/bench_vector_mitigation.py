"""Lock-step *mitigated* closed-loop throughput against batches of one.

Runs the ``ci``-scale campaign (2 patients x 42 scenarios x 150 cycles)
with the CAWOT monitor wired to a mitigator — the paper's Table VII
configuration — with every run alone in a lock-step batch of one (the
reference) and through the lock-step engine at several ``LOCKSTEP_WIDTH``
values, for both benchmarked strategy families (:class:`FixedMitigator`,
Algorithm 1's fixed dose, and the KnowSafe-style
:class:`PredictiveMitigator`).  A final test asserts that the batched
traces are element-wise identical to the reference run and — the
acceptance bar for the mitigated batch path — at least 9.4x faster (the
former 3x bar over the retired single-run loop, times the measured
width-1/single-run time ratio of 3.13 on this grid).

Run:  pytest benchmarks/bench_vector_mitigation.py --benchmark-only -s
"""

import time

import numpy as np
import pytest

import repro.parallel
from conftest import reference_campaign
from repro.core import FixedMitigator, PredictiveMitigator, cawot_monitor
from repro.experiments import ExperimentConfig
from repro.fi import CampaignConfig, generate_campaign
from repro.simulation import run_campaign, warm_profiles

CONFIG = ExperimentConfig.preset("ci")
SCENARIOS = generate_campaign(CampaignConfig(stride=CONFIG.stride))
N_SIMS = len(CONFIG.patients) * len(SCENARIOS)

_CACHE = {}


def _monitor_factory(pid):
    return cawot_monitor()


def _run(mitigator, workers=1):
    return run_campaign(CONFIG.platform, CONFIG.patients, SCENARIOS,
                        monitor_factory=_monitor_factory,
                        mitigator=mitigator, n_steps=CONFIG.n_steps,
                        workers=workers)


def _timed(fn, *args):
    warm_profiles(CONFIG.platform, CONFIG.patients)
    start = time.perf_counter()
    traces = fn(*args)
    return traces, time.perf_counter() - start


def _reference():
    if "reference" not in _CACHE:
        _CACHE["reference"] = _timed(
            reference_campaign, CONFIG.platform, CONFIG.patients, SCENARIOS,
            CONFIG.n_steps, _monitor_factory, FixedMitigator())
    return _CACHE["reference"]


def _report(name, elapsed):
    print(f"\n{name}: {N_SIMS} mitigated sims x {CONFIG.n_steps} cycles "
          f"in {elapsed:.2f}s ({N_SIMS / elapsed:.1f} sims/sec)")


@pytest.mark.parametrize("width", [1, 8, 16, 32, 84])
def test_mitigated_campaign_throughput(benchmark, monkeypatch, width):
    monkeypatch.setattr(repro.parallel, "LOCKSTEP_WIDTH", width)
    warm_profiles(CONFIG.platform, CONFIG.patients)
    traces = benchmark.pedantic(
        _run, args=(FixedMitigator(),), rounds=1, iterations=1)
    assert len(traces) == N_SIMS
    if benchmark.stats is not None:  # absent under --benchmark-disable
        _report(f"width={width}", benchmark.stats.stats.mean)


@pytest.mark.parametrize("family", [FixedMitigator, PredictiveMitigator])
def test_both_families_batched(benchmark, family):
    """The second strategy family rides the same harness."""
    warm_profiles(CONFIG.platform, CONFIG.patients)
    traces = benchmark.pedantic(
        _run, args=(family(),), rounds=1, iterations=1)
    assert len(traces) == N_SIMS
    if benchmark.stats is not None:
        _report(family.__name__, benchmark.stats.stats.mean)


def test_mitigation_parity_and_speedup():
    """Lock-step mitigated traces are element-wise identical to the
    width-1 reference and at least 9.4x faster (the path's acceptance
    bar)."""
    reference, t_reference = _reference()
    batched, t_batched = _timed(_run, FixedMitigator())
    _report("reference", t_reference)
    _report(f"width={repro.parallel.LOCKSTEP_WIDTH}", t_batched)
    print(f"speedup: {t_reference / t_batched:.2f}x")

    assert len(batched) == N_SIMS
    for s, v in zip(reference, batched):
        for name in ("true_bg", "cgm", "iob", "final_rate", "final_bolus",
                     "delivered_rate", "delivered_bolus", "alert",
                     "alert_hazard", "mitigated"):
            assert np.array_equal(getattr(s, name), getattr(v, name)), name

    assert t_reference / t_batched >= 9.4, (
        f"expected >=9.4x batched mitigation speedup, got "
        f"{t_reference / t_batched:.2f}x")


def test_mitigation_stacks_with_workers():
    """Mitigated batches inside pool chunks: still identical traces."""
    reference, _ = _reference()
    combo, t_combo = _timed(_run, FixedMitigator(), 2)
    _report("2 workers", t_combo)
    for s, v in zip(reference, combo):
        assert np.array_equal(s.mitigated, v.mitigated)
        assert np.array_equal(s.true_bg, v.true_bg)
