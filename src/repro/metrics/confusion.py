"""Sample-level hazard-prediction accuracy with a tolerance window.

Implements the paper's Table IV / Fig. 6 evaluation.  Table IV anchors the
prediction look-back window at the positive ground truth ("t - delta't:
start time of a window delta, ending with a positive ground truth, that
includes t"), so detection is credited per hazard *episode*:

- a hazard episode is a maximal run of ground-truth-positive samples
  ``[s, e]``; its anchored window is ``[s - delta, e]``;
- ground truth is *positive* at sample ``t`` when some hazardous sample
  exists in ``[t, t + delta]`` (Fig. 6);
- a positive sample is a **TP** when its episode's anchored window contains
  at least one alert, otherwise an **FN** — "hazard occurs without a
  prediction in the window delta ahead";
- a negative sample is an **FP** when an alert is raised exactly at ``t``
  ("no hazard happens in [0, delta] after an alert"), otherwise a **TN**.

This rewards early detection (the whole point of hazard *prediction*) while
charging every alert that is never followed by a hazard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

__all__ = ["ConfusionCounts", "tolerance_confusion", "traces_confusion",
           "DEFAULT_TOLERANCE"]

#: default tolerance window delta in cycles (2 hours of 5-minute samples —
#: the scale of the paper's observed reaction times)
DEFAULT_TOLERANCE = 24


@dataclass
class ConfusionCounts:
    """Aggregated confusion counts with the standard derived metrics."""

    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(self.tp + other.tp, self.fp + other.fp,
                               self.fn + other.fn, self.tn + other.tn)

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @property
    def fpr(self) -> float:
        denom = self.fp + self.tn
        return self.fp / denom if denom else 0.0

    @property
    def fnr(self) -> float:
        denom = self.fn + self.tp
        return self.fn / denom if denom else 0.0

    @property
    def accuracy(self) -> float:
        return (self.tp + self.tn) / self.total if self.total else 0.0

    @property
    def precision(self) -> float:
        denom = self.tp + self.fp
        return self.tp / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.tp + self.fn
        return self.tp / denom if denom else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if (p + r) > 0 else 0.0

    def as_row(self):
        """(FPR, FNR, ACC, F1) — the Table V/VI column order."""
        return (self.fpr, self.fnr, self.accuracy, self.f1)


def _episodes(truth: np.ndarray):
    """Maximal runs of positive ground truth as (start, end) inclusive."""
    episodes = []
    n = len(truth)
    t = 0
    while t < n:
        if truth[t]:
            start = t
            while t + 1 < n and truth[t + 1]:
                t += 1
            episodes.append((start, t))
        t += 1
    return episodes


def tolerance_confusion(pred, truth, delta: int = DEFAULT_TOLERANCE,
                        lookback: Optional[int] = None) -> ConfusionCounts:
    """Tolerance-window confusion counts for one trace (see module docs).

    Parameters
    ----------
    pred:
        Boolean/0-1 alert sequence ``P(t)``.
    truth:
        Boolean/0-1 hazard ground truth ``G(t)``.
    delta:
        Tolerance window (cycles): forward for positives, anchored look-back
        for detection credit.
    lookback:
        Width of the episode-anchored detection window (defaults to
        ``delta``).
    """
    pred = np.asarray(pred).astype(bool)
    truth = np.asarray(truth).astype(bool)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    lookback = delta if lookback is None else lookback
    n = len(pred)
    counts = ConfusionCounts()
    # hazard within [t, t+delta] for each t (forward window any)
    ground_pos = np.zeros(n, dtype=bool)
    for t in range(n):
        ground_pos[t] = truth[t:min(t + delta + 1, n)].any()
    # per-episode detection: any alert within the anchored window
    detected = np.zeros(n, dtype=bool)  # per-sample: owning episode detected
    for start, end in _episodes(truth):
        hit = pred[max(start - lookback, 0):end + 1].any()
        if hit:
            # every positive sample announcing this episode is credited
            detected[max(start - delta, 0):end + 1] = True
    for t in range(n):
        if ground_pos[t]:
            if detected[t]:
                counts.tp += 1
            else:
                counts.fn += 1
        else:
            if pred[t]:
                counts.fp += 1
            else:
                counts.tn += 1
    return counts


def traces_confusion(traces: Iterable, alerts: Iterable[np.ndarray],
                     delta: int = DEFAULT_TOLERANCE,
                     lookback: Optional[int] = None) -> ConfusionCounts:
    """Aggregate tolerance-window counts over (trace, alert-sequence) pairs.

    Raises ``ValueError`` when *traces* and *alerts* differ in count.
    """
    total = ConfusionCounts()
    for trace, pred in zip(traces, alerts, strict=True):
        total = total + tolerance_confusion(pred, trace.hazard_label.hazardous,
                                            delta=delta, lookback=lookback)
    return total
