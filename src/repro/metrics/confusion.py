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
from typing import Iterable

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


def tolerance_confusion(pred, truth, delta: int = DEFAULT_TOLERANCE
                        ) -> ConfusionCounts:
    """Tolerance-window confusion counts for one trace (see module docs).

    Every window test is a difference of prefix sums, and the credited
    samples are the union of the detected episodes' windows, so no step
    loops in Python.

    Parameters
    ----------
    pred:
        Boolean/0-1 alert sequence ``P(t)``.
    truth:
        Boolean/0-1 hazard ground truth ``G(t)``.
    delta:
        Tolerance window (cycles): forward for positives, anchored look-back
        for detection credit.
    """
    pred = np.asarray(pred).astype(bool)
    truth = np.asarray(truth).astype(bool)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    if pred.ndim != 1:
        raise ValueError(f"expected 1-D sequences, got shape {pred.shape}")
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    n = len(pred)
    # prefix sums: hazards[t] / alerts[t] count the positives before t
    hazards = np.zeros(n + 1, dtype=np.intp)
    alerts = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(truth, out=hazards[1:])
    np.cumsum(pred, out=alerts[1:])
    # hazard within [t, t+delta] for each t (forward window any)
    ground_pos = hazards[np.minimum(np.arange(delta + 1, n + delta + 1),
                                    n)] > hazards[:-1]
    # episodes: maximal runs of positive ground truth, [start, end]
    edges = np.diff(np.concatenate(([0], truth.view(np.int8), [0])))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1) - 1
    # per-episode detection: any alert within the anchored window
    hit = alerts[ends + 1] > alerts[np.minimum(np.maximum(
        starts - delta, 0), n)]
    # every positive sample announcing a detected episode is credited
    opened = np.bincount(np.maximum(starts[hit] - delta, 0), minlength=n + 1)
    closed = np.bincount(ends[hit] + 1, minlength=n + 1)
    detected = np.cumsum(opened - closed)[:n] > 0
    tp = int(np.count_nonzero(ground_pos & detected))
    fp = int(np.count_nonzero(pred & ~ground_pos))
    positives = int(np.count_nonzero(ground_pos))
    return ConfusionCounts(tp=tp, fp=fp, fn=positives - tp,
                           tn=n - positives - fp)


def traces_confusion(traces: Iterable, alerts: Iterable[np.ndarray],
                     delta: int = DEFAULT_TOLERANCE) -> ConfusionCounts:
    """Aggregate tolerance-window counts over (trace, alert-sequence) pairs.

    Raises ``ValueError`` when *traces* and *alerts* differ in count.
    """
    total = ConfusionCounts()
    for trace, pred in zip(traces, alerts, strict=True):
        total = total + tolerance_confusion(pred, trace.hazard_label.hazardous,
                                            delta=delta)
    return total
