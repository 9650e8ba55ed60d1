"""Medical-guidelines baseline monitor (Table III of the paper).

A DAMON-style data-authenticity monitor built from generic clinical rules,
with no knowledge of the controller or patient:

- phi1: BG must stay in the normal range [70, 180] mg/dL;
- phi2: BG must not change too fast (per-cycle delta in (-5, 3) mg/dL);
- phi3: once BG drops below its 10th percentile ``lambda_10``, the controller
  must bring it back within ``alpha`` minutes;
- phi4: symmetric for the 90th percentile ``lambda_90``.

Violations on the low side predict H1, on the high side H2; where several
fire, the first of phi1, phi2, phi3, phi4 names the hazard.

:meth:`GuidelineMonitor.observe_batch` advances one time loop with the
phi3/phi4 excursion timers held as per-column vectors, so a whole replay
batch is evaluated in ``n_steps`` numpy steps (comparisons and exact
float arithmetic only).
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from ..core.monitor import MonitorState, SafetyMonitor
from ..hazards import HazardType

__all__ = ["GuidelineMonitor"]


class GuidelineMonitor(SafetyMonitor):
    """Table III rule monitor.

    Parameters
    ----------
    bg_low, bg_high:
        The phi1 normal range (mg/dL).
    delta_low, delta_high:
        The phi2 per-cycle change bounds (mg/dL per 5-minute cycle).
    lambda_10, lambda_90:
        Percentile thresholds for phi3/phi4; refine with :meth:`fit` from
        fault-free traces.
    alpha:
        Recovery deadline for phi3/phi4 in minutes (paper suggests 25).
    """

    name = "Guideline"

    def __init__(self, bg_low: float = 70.0, bg_high: float = 180.0,
                 delta_low: float = -5.0, delta_high: float = 3.0,
                 lambda_10: float = 90.0, lambda_90: float = 160.0,
                 alpha: float = 25.0):
        if bg_low >= bg_high:
            raise ValueError("bg_low must be below bg_high")
        if delta_low >= delta_high:
            raise ValueError("delta_low must be below delta_high")
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        self.bg_low = float(bg_low)
        self.bg_high = float(bg_high)
        self.delta_low = float(delta_low)
        self.delta_high = float(delta_high)
        self.lambda_10 = float(lambda_10)
        self.lambda_90 = float(lambda_90)
        self.alpha = float(alpha)

    def fit(self, traces: Iterable) -> "GuidelineMonitor":
        """Set lambda_10/lambda_90 from the BG distribution of *traces*."""
        values = np.concatenate([trace.cgm for trace in traces])
        if values.size == 0:
            raise ValueError("cannot fit percentiles on empty traces")
        self.lambda_10 = float(np.percentile(values, 10))
        self.lambda_90 = float(np.percentile(values, 90))
        return self

    def init_state(self, n_cols: int) -> MonitorState:
        """The phi3/phi4 excursion start times per column (NaN: not in
        an excursion)."""
        return {"below_since": np.full(n_cols, np.nan),
                "above_since": np.full(n_cols, np.nan)}

    def observe_batch(self, batch, state: Optional[MonitorState] = None
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """The Table III rules over a context batch.

        One time loop over the ``(B,)`` excursion timers of *state*.  An
        excursion's timer starts at its first cycle, and phi3/phi4 fire
        once it has lasted more than ``alpha`` minutes.  Hazard
        precedence: phi1 first, then phi2/phi3/phi4 only where no
        earlier rule already set a type.
        """
        n_steps, n_cols = batch.shape
        alerts = np.zeros((n_steps, n_cols), dtype=bool)
        hazards = np.zeros((n_steps, n_cols), dtype=int)
        h1, h2 = int(HazardType.H1), int(HazardType.H2)
        if state is None:
            state = self.init_state(n_cols)
        below_since = state["below_since"]
        above_since = state["above_since"]
        for step in range(n_steps):
            bg = batch.bg[step]
            t = batch.t[step]

            phi1_low = bg < self.bg_low
            phi1_high = bg > self.bg_high
            delta = batch.bg_rate[step] * 5.0
            phi2_fall = delta < self.delta_low
            phi2_rise = delta > self.delta_high

            under = bg < self.lambda_10
            below_set = ~np.isnan(below_since)
            phi3 = under & below_set & (t - below_since > self.alpha)
            below_since = np.where(
                under, np.where(below_set, below_since, t), np.nan)

            over = bg > self.lambda_90
            above_set = ~np.isnan(above_since)
            phi4 = over & above_set & (t - above_since > self.alpha)
            above_since = np.where(
                over, np.where(above_set, above_since, t), np.nan)

            hazard = np.where(phi1_low, h1, np.where(phi1_high, h2, 0))
            for cond, code in ((phi2_fall, h1), (phi2_rise, h2),
                               (phi3, h1), (phi4, h2)):
                hazard = np.where((hazard == 0) & cond, code, hazard)
            alerts[step] = (phi1_low | phi1_high | phi2_fall | phi2_rise
                            | phi3 | phi4)
            hazards[step] = hazard
        state["below_since"][:] = below_since
        state["above_since"][:] = above_since
        return alerts, hazards
