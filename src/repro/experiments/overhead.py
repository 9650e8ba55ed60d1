"""Section V-E6 — monitor per-decision time overhead.

The paper reports average per-cycle overheads of 252.7 us (CAWT), 664.1 us
(Guideline), 1.3 ms (DT), 30.7 ms (MLP), 32.6 ms (LSTM) and 123.9 ms (MPC).
This experiment times each monitor's single-stream
:meth:`~repro.core.monitor.SafetyMonitor.observe` over the contexts of one
replayed trace: a ``(1, 1)`` ``observe_batch`` per decision that carries
the stream's state, the one evaluation path every monitor has.  The
lock-step engine and the online service make the same call per tick with
one column per run or user, so this is the cost of one decision at batch
width one.
"""

from __future__ import annotations

import time

from ..core import cawt_monitor
from ..simulation import iter_contexts
from .config import ExperimentConfig
from .data import baseline_monitors, cawt_full_thresholds, ml_monitors, platform_data
from .render import ExperimentResult

__all__ = ["run_overhead"]

PAPER_OVERHEAD_US = {"CAWT": 252.7, "Guideline": 664.1, "DT": 1300.0,
                     "MLP": 30700.0, "LSTM": 32600.0, "MPC": 123900.0}


def _time_monitor(monitor, contexts, repeats: int = 3) -> float:
    """Mean per-decision latency in microseconds."""
    best = float("inf")
    for _ in range(repeats):
        monitor.reset()
        start = time.perf_counter()
        for ctx in contexts:
            monitor.observe(ctx)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed / len(contexts))
    return best * 1e6


def run_overhead(config: ExperimentConfig) -> ExperimentResult:
    data = platform_data(config)
    contexts = list(iter_contexts(data.traces[0]))
    pid = config.patients[0]

    monitors = {"CAWT": cawt_monitor(cawt_full_thresholds(data, pid))}
    monitors.update(baseline_monitors(config))
    monitors.update(ml_monitors(data))

    result = ExperimentResult(
        title=f"Section V-E6 — per-decision monitor overhead "
              f"({config.platform})",
        headers=("monitor", "mean_us", "paper_us"))
    for name, monitor in monitors.items():
        mean_us = _time_monitor(monitor, contexts)
        result.rows.append((name, mean_us,
                            PAPER_OVERHEAD_US.get(name, float("nan"))))
    result.notes.append(
        "paper ordering: CAWT cheapest; Guideline < DT << MLP ~ LSTM << MPC")
    return result
