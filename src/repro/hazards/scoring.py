"""Continuous hazard-proximity scoring for rare-event scenario search.

The labeler in :mod:`repro.hazards.labeling` answers a binary question —
did this trace cross a high-risk threshold and keep climbing?  A search
loop needs more: a *continuous* objective that still rises as a safe
scenario edges toward the failure boundary, so the proposal distribution
has a gradient to climb long before the first hazard is found (O'Kelly et
al., rare-event risk analysis of AP controllers).

The score has three stacked components, all derived from the same rolling
risk indices the paper thresholds:

1. **Excursion margin** — ``max_t max(LBGI(t) - 5, HBGI(t) - 9)``: how far
   the trace's worst one-hour window rose above (positive) or stayed below
   (negative) the high-risk thresholds.  Continuous everywhere, so even an
   all-safe population is rankable.
2. **Hazard bonus** — a fixed offset added when the trace is *labeled*
   hazardous (threshold crossed and still rising).  At comparable
   excursion depth this ranks a confirmed hazard strictly above a
   near-miss whose index touched the threshold while already recovering.
3. **Promptness** — hazards that materialise sooner after the fault
   activates (small time-to-hazard) score higher, mirroring the paper's
   TTH metric: early hazards are both more dangerous and harder for a
   monitor to pre-empt, so the search steers toward them.

Scores are pure functions of the trace, so they inherit the engines'
bit-determinism: the same scenario scores identically at any
``workers=`` and lock-step width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .labeling import DEFAULT_WINDOW, label_hazards
from .risk import HBGI_THRESHOLD, LBGI_THRESHOLD, rolling_indices

__all__ = ["HazardScore", "excursion_margin", "score_trace", "HAZARD_BONUS"]

#: score offset separating labeled hazards from every near-miss
HAZARD_BONUS = 1.0


@dataclass(frozen=True)
class HazardScore:
    """Scored hazard proximity of one simulated trace.

    Attributes
    ----------
    score:
        The search objective (higher = closer to / deeper into hazard).
    margin:
        Worst-window risk-index excursion above the thresholds (negative
        while the trace stays safe).
    hazardous:
        The paper's binary ground-truth label.
    hazard_type:
        ``int(HazardType)`` of the first hazard (0 when safe).
    first_hazard:
        Sample index of hazard occurrence (``None`` when safe).
    time_to_hazard:
        Minutes from fault activation (or simulation start, for fault-free
        disturbance scenarios) to hazard occurrence; ``None`` when safe.
    """

    score: float
    margin: float
    hazardous: bool
    hazard_type: int
    first_hazard: Optional[int]
    time_to_hazard: Optional[float]


def excursion_margin(bg, window: int = DEFAULT_WINDOW) -> float:
    """Worst-window excursion of the rolling risk indices over thresholds.

    ``max_t max(LBGI(t) - LBGI_THRESHOLD, HBGI(t) - HBGI_THRESHOLD)`` —
    positive once either index has crossed its high-risk threshold
    anywhere in the trace, negative (distance-to-threshold) otherwise.
    """
    lbgi_series, hbgi_series = rolling_indices(bg, window)
    return float(np.maximum(lbgi_series - LBGI_THRESHOLD,
                            hbgi_series - HBGI_THRESHOLD).max())


def score_trace(trace, window: int = DEFAULT_WINDOW) -> HazardScore:
    """Hazard-proximity score of a :class:`~repro.simulation.trace.SimulationTrace`.

    Safe traces score their (negative-to-positive) excursion margin;
    labeled hazards additionally earn :data:`HAZARD_BONUS` plus a
    promptness term in ``(0, 1]`` that decays with time-to-hazard, so at
    equal excursion depth the elite set orders: fast hazards > slow
    hazards > near-misses > benign.

    Ground truth comes from the *true* glucose — faults corrupt the
    controller, never the plant or the labels — via the same
    :func:`~repro.hazards.labeling.label_hazards` rule the paper uses.
    """
    if window == DEFAULT_WINDOW:
        label = trace.hazard_label  # cached on the trace
    else:
        label = label_hazards(trace.true_bg, window)
    margin = float(np.maximum(label.lbgi - LBGI_THRESHOLD,
                              label.hbgi - HBGI_THRESHOLD).max())
    if not label.any_hazard:
        return HazardScore(score=margin, margin=margin, hazardous=False,
                           hazard_type=0, first_hazard=None,
                           time_to_hazard=None)
    # time-to-hazard measured from the fault activation when one exists;
    # meal/disturbance-only scenarios anchor at the start of the run
    start = trace.fault.start_step if trace.fault is not None else 0
    tth = max(label.first_hazard - start, 0) * trace.dt
    promptness = 1.0 / (1.0 + tth / 60.0)
    return HazardScore(score=margin + HAZARD_BONUS + promptness,
                       margin=margin, hazardous=True,
                       hazard_type=int(label.first_type),
                       first_hazard=label.first_hazard,
                       time_to_hazard=tth)
