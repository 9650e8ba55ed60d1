"""Exponential insulin activity curves for insulin-on-board (IOB).

OpenAPS (oref0) models subcutaneous insulin decay with an exponential
activity curve parameterised by the duration of insulin action (DIA) and the
activity peak time.  For a unit bolus at time 0 the activity (U/min) and
remaining IOB fraction are::

    tau = tp * (1 - tp/td) / (1 - 2*tp/td)
    a   = 2 * tau / td
    S   = 1 / (1 - a + (1 + a) * exp(-td/tau))

    activity(t) = (S / tau^2) * t * (1 - t/td) * exp(-t/tau)
    iob(t)      = 1 - S * (1 - a) *
                  ((t^2 / (tau*td*(1-a)) - t/tau - 1) * exp(-t/tau) + 1)

with ``td`` the DIA and ``tp`` the peak time (minutes).  These are the same
curves oref0 uses; the controller and the context-aware monitor both consume
the resulting IOB and its rate of change (the paper's ``IOB`` and ``IOB'``
context variables, Section IV-B).

The lock-step engine (:mod:`repro.simulation.vector`) records each
cycle's net delivery (above the scheduled basal) as one impulse at the
cycle midpoint, which is accurate to first order for 5-minute cycles, and
tabulates :meth:`InsulinActivityCurve.iob_fraction` and
:meth:`InsulinActivityCurve.activity` once per (step, delivery) lag.

The curve constants ``(tau, a, S)`` are computed once per curve and cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

__all__ = ["InsulinActivityCurve"]


@dataclass(frozen=True)
class InsulinActivityCurve:
    """Exponential insulin activity curve (oref0 style).

    Parameters
    ----------
    dia:
        Duration of insulin action in minutes (default 5 h).
    peak:
        Activity peak time in minutes (default 75, rapid-acting insulin).
    """

    dia: float = 300.0
    peak: float = 75.0

    def __post_init__(self):
        if self.dia <= 0:
            raise ValueError(f"DIA must be positive, got {self.dia}")
        if not 0 < self.peak < self.dia / 2.0:
            raise ValueError(
                f"peak must be in (0, DIA/2) = (0, {self.dia / 2}), got {self.peak}")

    @cached_property
    def _constants(self) -> Tuple[float, float, float]:
        """``(tau, a, S)`` — computed once per curve instance and cached
        (``cached_property`` writes through the instance ``__dict__``, which
        is legal on a frozen dataclass)."""
        td, tp = self.dia, self.peak
        tau = tp * (1.0 - tp / td) / (1.0 - 2.0 * tp / td)
        a = 2.0 * tau / td
        s = 1.0 / (1.0 - a + (1.0 + a) * math.exp(-td / tau))
        return tau, a, s

    def activity(self, minutes: float) -> float:
        """Insulin activity (fraction/min) *minutes* after a unit bolus."""
        if minutes <= 0 or minutes >= self.dia:
            return 0.0
        tau, _, s = self._constants
        return (s / tau ** 2) * minutes * (1.0 - minutes / self.dia) * math.exp(-minutes / tau)

    def iob_fraction(self, minutes: float) -> float:
        """Fraction of a unit bolus still on board after *minutes*."""
        if minutes <= 0:
            return 1.0
        if minutes >= self.dia:
            return 0.0
        tau, a, s = self._constants
        td = self.dia
        frac = 1.0 - s * (1.0 - a) * (
            (minutes ** 2 / (tau * td * (1.0 - a)) - minutes / tau - 1.0)
            * math.exp(-minutes / tau) + 1.0)
        return min(max(frac, 0.0), 1.0)
