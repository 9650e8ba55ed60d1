"""Python port of the OpenAPS (oref0) ``determine-basal`` core logic.

The paper's primary platform runs the OpenAPS reference-design control loop:
every 5 minutes the controller projects an *eventual* blood glucose from the
current reading, the insulin on board, the insulin activity and the recent
deviation between observed and insulin-explained BG change, then sets a
temporary basal rate to steer the eventual BG to target.

This port keeps the decision structure of ``oref0/lib/determine-basal``:

- ``bgi``: expected BG change this cycle from insulin activity alone,
  ``-activity * isf * 5`` (mg/dL per 5 min);
- ``deviation``: 30-minute extrapolation of the difference between the
  observed delta and ``bgi``;
- ``eventualBG = bg - iob * isf + deviation``;
- low-glucose suspend below a hard threshold;
- low-temp when eventual BG is below target (down to zero),
  high-temp when above, with ``max_basal``/``max_iob`` safety caps.

Profile-management, autosens and CGM-cleaning plumbing of the JavaScript
implementation are out of scope (DESIGN.md §3).  The law itself runs over
whole batches in the lock-step engine (``_OpenAPSBatch`` in
:mod:`repro.simulation.vector`); this class holds one patient's tuning.
"""

from __future__ import annotations

from typing import Optional

from .base import Controller

__all__ = ["OpenAPSController"]


class OpenAPSController(Controller):
    """oref0-style temp-basal controller.

    Parameters
    ----------
    basal:
        Scheduled (profile) basal rate in U/h.
    isf:
        Insulin sensitivity factor, mg/dL per U.
    target:
        BG target in mg/dL (the paper's ``BGT``).
    max_basal:
        Safety cap on the temp-basal rate (U/h); oref0 defaults to a small
        multiple of the scheduled basal.
    max_iob:
        Cap on *net* IOB (insulin on board beyond the scheduled basal, the
        oref0 convention) in units; no high-temp above it.
    suspend_threshold:
        Low-glucose suspend threshold in mg/dL.
    dia, peak:
        Insulin activity curve parameters (minutes).
    """

    def __init__(self, basal: float, isf: float = 50.0, target: float = 120.0,
                 max_basal: Optional[float] = None, max_iob: float = 10.0,
                 suspend_threshold: float = 70.0, dia: float = 300.0,
                 peak: float = 75.0):
        super().__init__("openaps", basal, dia=dia, peak=peak)
        if isf <= 0:
            raise ValueError(f"ISF must be positive, got {isf}")
        if target <= 0:
            raise ValueError(f"target must be positive, got {target}")
        self.isf = float(isf)
        self.target = float(target)
        self.max_basal = float(max_basal) if max_basal is not None else 4.0 * basal
        self.max_iob = float(max_iob)
        self.suspend_threshold = float(suspend_threshold)
