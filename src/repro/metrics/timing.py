"""Resilience and timeliness metrics (Section V-D).

- **Hazard coverage**: P(hazard | fault activated) — the FI effectiveness /
  controller-resilience measure of Fig. 7a and Fig. 8.
- **Time-to-Hazard (TTH)**: minutes from fault activation to hazard
  occurrence (Fig. 7b); negative when the hazard pre-dates the fault.
- **Reaction time**: minutes from the first monitor alert to the hazard
  (Fig. 9); positive = early detection.
- **Early-detection rate (EDR)**: fraction of hazardous runs whose first
  alert precedes the hazard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

__all__ = ["hazard_coverage", "time_to_hazard_stats", "ReactionStats",
           "reaction_stats", "first_alert_step"]


def hazard_coverage(traces: Iterable) -> float:
    """Fraction of traces that reached a hazardous state."""
    traces = list(traces)
    if not traces:
        raise ValueError("no traces supplied")
    return sum(t.hazardous for t in traces) / len(traces)


def time_to_hazard_stats(traces: Iterable) -> dict:
    """TTH distribution over hazardous faulty traces (minutes).

    Returns mean/std/min/max, the sample list, and the fraction of hazards
    that occurred *before* fault activation (the paper reports 7.1%).
    """
    tths: List[float] = []
    for trace in traces:
        tth = trace.time_to_hazard()
        if tth is not None:
            tths.append(tth)
    if not tths:
        return {"count": 0, "mean": float("nan"), "std": float("nan"),
                "min": float("nan"), "max": float("nan"),
                "negative_fraction": float("nan"), "samples": []}
    arr = np.asarray(tths)
    return {
        "count": len(arr),
        "mean": float(arr.mean()),
        "std": float(arr.std()),
        "min": float(arr.min()),
        "max": float(arr.max()),
        "negative_fraction": float((arr < 0).mean()),
        "samples": tths,
    }


def first_alert_step(alerts: np.ndarray) -> Optional[int]:
    """Index of the first alert in an alert sequence, or None."""
    idx = np.flatnonzero(np.asarray(alerts).astype(bool))
    return int(idx[0]) if idx.size else None


@dataclass
class ReactionStats:
    """Reaction-time summary for one monitor over a campaign."""

    mean: float
    std: float
    early_detection_rate: float
    n_hazardous: int
    n_detected: int
    samples: List[float]


def reaction_stats(traces: Sequence, alerts: Sequence[np.ndarray],
                   dt: float = 5.0) -> ReactionStats:
    """Reaction time (th - td, minutes) across hazardous traces.

    Undetected hazards contribute no reaction-time sample but lower the
    early-detection rate.  Raises ``ValueError`` when *traces* and
    *alerts* differ in count.
    """
    samples: List[float] = []
    n_hazardous = 0
    n_early = 0
    n_detected = 0
    for trace, pred in zip(traces, alerts, strict=True):
        if not trace.hazardous:
            continue
        n_hazardous += 1
        td = first_alert_step(pred)
        if td is None:
            continue
        n_detected += 1
        th = trace.hazard_label.first_hazard
        reaction = (th - td) * dt
        samples.append(reaction)
        if reaction > 0:
            n_early += 1
    if samples:
        arr = np.asarray(samples)
        mean, std = float(arr.mean()), float(arr.std())
    else:
        mean, std = float("nan"), float("nan")
    edr = n_early / n_hazardous if n_hazardous else float("nan")
    return ReactionStats(mean=mean, std=std, early_detection_rate=edr,
                         n_hazardous=n_hazardous, n_detected=n_detected,
                         samples=samples)
