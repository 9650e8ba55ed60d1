"""Insulin-on-board (IOB) bookkeeping with exponential activity curves.

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

Deliveries are recorded as (time, units) impulses; a constant basal over a
control cycle is recorded as one impulse at the cycle midpoint, which is
accurate to first order for 5-minute cycles.

The curve constants ``(tau, a, S)`` are computed once per curve and cached —
they used to be recomputed on *every* activity/IOB evaluation, which
dominated the closed loop's profile.  For batch evaluation the curve offers
vectorized ``activity_at``/``iob_fraction_at`` and the calculator a
vectorized :meth:`IOBCalculator.iob_at`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Tuple

import numpy as np

__all__ = ["InsulinActivityCurve", "IOBCalculator"]


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

    def activity_at(self, minutes: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`activity` over an array of elapsed minutes.

        Uses ``np.exp`` internally, so individual elements can differ from
        the scalar method in the final ulp of the exponential; structurally
        the curves are identical.
        """
        minutes = np.asarray(minutes, dtype=float)
        tau, _, s = self._constants
        with np.errstate(over="ignore"):
            act = (s / tau ** 2) * minutes * (1.0 - minutes / self.dia) \
                * np.exp(-minutes / tau)
        return np.where((minutes <= 0) | (minutes >= self.dia), 0.0, act)

    def iob_fraction_at(self, minutes: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`iob_fraction` (same ulp caveat as
        :meth:`activity_at`)."""
        minutes = np.asarray(minutes, dtype=float)
        tau, a, s = self._constants
        td = self.dia
        with np.errstate(over="ignore"):
            frac = 1.0 - s * (1.0 - a) * (
                (minutes ** 2 / (tau * td * (1.0 - a)) - minutes / tau - 1.0)
                * np.exp(-minutes / tau) + 1.0)
        frac = np.minimum(np.maximum(frac, 0.0), 1.0)
        return np.where(minutes <= 0, 1.0,
                        np.where(minutes >= td, 0.0, frac))


class IOBCalculator:
    """Tracks insulin deliveries and evaluates IOB / activity over time.

    Parameters
    ----------
    curve:
        The decay curve to use.
    basal_offset:
        Scheduled basal rate (U/h) subtracted from deliveries when computing
        *net* IOB, oref0-style.  The default 0 yields gross IOB, which is
        what the Basal-Bolus platform uses; either convention works for the
        monitors because thresholds are learned per patient.
    """

    def __init__(self, curve: InsulinActivityCurve | None = None,
                 basal_offset: float = 0.0):
        if basal_offset < 0:
            raise ValueError(f"basal_offset must be >= 0, got {basal_offset}")
        self.curve = curve or InsulinActivityCurve()
        self.basal_offset = float(basal_offset)
        self._deliveries: List[Tuple[float, float]] = []  # (time, units)

    def record(self, basal_u_h: float, bolus_u: float, t: float,
               duration: float) -> None:
        """Record delivery over ``[t, t+duration)`` minutes."""
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        net_rate = basal_u_h - self.basal_offset
        units = net_rate * duration / 60.0 + bolus_u
        if units != 0.0:
            self._deliveries.append((t + duration / 2.0, units))
        self._prune(t)

    def _prune(self, now: float) -> None:
        horizon = now - self.curve.dia
        self._deliveries = [(tm, u) for tm, u in self._deliveries if tm >= horizon]

    def iob(self, t: float) -> float:
        """Insulin on board (U) at time *t* minutes."""
        # added left to right from 0, the order the lock-step engine's band
        # sum replays; builtin sum compensates rounding from Python 3.12 on
        total = 0
        for tm, u in self._deliveries:
            if tm <= t:
                total += u * self.curve.iob_fraction(t - tm)
        return total

    def iob_at(self, times: np.ndarray) -> np.ndarray:
        """Vectorized IOB over an array of query *times* (minutes).

        One pass per recorded delivery, accumulated in recording order, so
        ``iob_at(ts)[i]`` agrees with ``iob(ts[i])`` for every element (up
        to the final ulp of the vectorized exponential).
        """
        times = np.asarray(times, dtype=float)
        total = np.zeros_like(times)
        for tm, u in self._deliveries:
            frac = self.curve.iob_fraction_at(times - tm)
            total += np.where(times >= tm, u * frac, 0.0)
        return total

    def activity(self, t: float) -> float:
        """Total insulin activity (U/min) at time *t*."""
        total = 0  # summed in the same order as iob()
        for tm, u in self._deliveries:
            if tm <= t:
                total += u * self.curve.activity(t - tm)
        return total

    def iob_rate(self, t: float) -> float:
        """dIOB/dt (U/min) at *t*: decay only, i.e. minus the activity."""
        return -self.activity(t)

    def reset(self) -> None:
        self._deliveries = []
