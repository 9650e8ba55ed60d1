"""Width-1 reference vs lock-step monitor replay throughput.

Replays the Table V monitor set (CAWT, CAWOT, Guideline, MPC) plus a
trained DT over the ``ci``-scale campaign (2 patients x 42 scenarios x
150 cycles) with every trace alone in a lock-step batch of one (the
reference, ``LOCKSTEP_WIDTH = 1``) and at several wider
``LOCKSTEP_WIDTH`` values.  A final test asserts that the batched alert
streams are element-wise identical to the reference replay and — the
acceptance bar for the batched replay path — at least 2.1x faster
(``scripts/ci_bench.py``'s ``REPLAY_SPEEDUP_FLOOR``).

Run:  pytest benchmarks/bench_vector_replay.py --benchmark-only -s
"""

import time

import numpy as np
import pytest

import repro.parallel
from repro.baselines import GuidelineMonitor, MPCMonitor
from repro.core import cawot_monitor, cawt_monitor, learn_thresholds
from repro.experiments import ExperimentConfig
from repro.fi import CampaignConfig, generate_campaign
from repro.ml import TrainingJob, run_training_jobs
from repro.simulation import replay_campaign, run_campaign

CONFIG = ExperimentConfig.preset("ci")
SCENARIOS = generate_campaign(CampaignConfig(stride=CONFIG.stride))
N_TRACES = len(CONFIG.patients) * len(SCENARIOS)

_CACHE = {}


def _traces_and_monitors():
    if not _CACHE:
        traces = run_campaign(CONFIG.platform, CONFIG.patients, SCENARIOS,
                              n_steps=CONFIG.n_steps)
        _CACHE["traces"] = traces
        _CACHE["monitors"] = {
            "CAWT": cawt_monitor(learn_thresholds(traces).thresholds),
            "CAWOT": cawot_monitor(),
            "Guideline": GuidelineMonitor(),
            "MPC": MPCMonitor(horizon_steps=CONFIG.mpc_horizon),
            "DT": run_training_jobs([TrainingJob.make("dt")],
                                    traces)[0].monitor,
        }
    return _CACHE["traces"], _CACHE["monitors"]


def _reference_replay(monitors, traces):
    """Every trace alone in a lock-step batch of one."""
    width = repro.parallel.LOCKSTEP_WIDTH
    repro.parallel.LOCKSTEP_WIDTH = 1
    try:
        return replay_campaign(monitors, traces)
    finally:
        repro.parallel.LOCKSTEP_WIDTH = width


def _timed(replay, **kwargs):
    traces, monitors = _traces_and_monitors()
    start = time.perf_counter()
    alerts = replay(monitors, traces, **kwargs)
    return alerts, time.perf_counter() - start


def _report(name, elapsed):
    print(f"\n{name}: {N_TRACES} traces x 5 monitors in {elapsed:.2f}s "
          f"({N_TRACES / elapsed:.1f} traces/sec/monitor-set)")


@pytest.mark.parametrize("width", [1, 8, 16, 32, 84])
def test_replay_throughput(benchmark, monkeypatch, width):
    traces, monitors = _traces_and_monitors()
    monkeypatch.setattr(repro.parallel, "LOCKSTEP_WIDTH", width)
    alerts = benchmark.pedantic(replay_campaign, args=(monitors, traces),
                                rounds=1, iterations=1)
    assert all(len(alerts[name]) == N_TRACES for name in monitors)
    if benchmark.stats is not None:  # absent under --benchmark-disable
        _report(f"width={width}", benchmark.stats.stats.mean)


def test_replay_parity_and_speedup():
    """Lock-step alert streams are element-wise identical to the reference
    replay and at least 2.1x faster (the path's acceptance bar)."""
    reference, t_reference = _timed(_reference_replay)
    batched, t_batched = _timed(replay_campaign)
    _report("reference", t_reference)
    _report(f"width={repro.parallel.LOCKSTEP_WIDTH}", t_batched)
    print(f"speedup: {t_reference / t_batched:.2f}x")

    for name in reference:
        assert len(batched[name]) == N_TRACES
        for a, b in zip(reference[name], batched[name]):
            assert np.array_equal(a, b), name

    assert t_reference / t_batched >= 2.1, (
        f"expected >=2.1x batched replay speedup, got "
        f"{t_reference / t_batched:.2f}x")


def test_replay_stacks_with_workers():
    """Batched replay inside pool chunks: still identical alert streams."""
    reference, _ = _timed(_reference_replay)
    combo, t_combo = _timed(replay_campaign, workers=2)
    _report("2 workers", t_combo)
    for name in reference:
        assert all(np.array_equal(a, b)
                   for a, b in zip(reference[name], combo[name]))
