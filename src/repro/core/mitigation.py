"""Hazard mitigation — Algorithm 1 of the paper.

When the monitor flags an unsafe control action, the mitigator replaces the
commanded insulin before it reaches the pump:

- predicted **H1** (too much insulin): command zero insulin;
- predicted **H2** (too little insulin): command a corrective insulin dose.

For H2 the paper notes that a context-dependent function ``f(rho(mu(x)), u)``
should choose the dose, but its experiments use a *fixed maximum insulin
value* so context-aware and non-context-aware monitors can be compared
fairly; :class:`FixedMitigator` implements that, and
:class:`ProportionalMitigator` implements a context-dependent ``f`` as the
documented extension.  :class:`PredictiveMitigator` is a second strategy
family in the KnowSafe style (see PAPERS.md): a short-horizon glucose
prediction feeds the corrective dose, and a knowledge rule (predicted
glucose below a suspend threshold) can veto insulin even on a predicted H2.

A mitigator is one columnar call, :meth:`Mitigator.correct_mask`, that
the lock-step simulation engine (:mod:`repro.simulation.vector`) makes
once per live tick over every row of the batch.  Mitigators are
stateless: a pure function of the tick.  See ``docs/mitigation.md`` for
the contract.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..hazards import HazardType

__all__ = ["Mitigator", "FixedMitigator", "ProportionalMitigator",
           "PredictiveMitigator"]


class Mitigator(abc.ABC):
    """Maps (alerts, hazards, context) to corrected commands."""

    @abc.abstractmethod
    def correct_mask(self, alerts: np.ndarray, hazards: np.ndarray,
                     tick) -> Tuple[np.ndarray, np.ndarray]:
        """Corrected commands for one live control cycle.

        Parameters
        ----------
        alerts:
            ``(B,)`` boolean alert flags for the tick.
        hazards:
            ``(B,)`` integer hazard-type codes (0 when silent).
        tick:
            A ``(1, B)`` :class:`~repro.simulation.features.ContextBatch`
            holding the cycle's context — ``tick.rate[0]``/
            ``tick.bolus[0]`` are the commanded values that must pass
            through unchanged on non-alert rows.

        Returns
        -------
        ``(rate, bolus)``: full-width ``(B,)`` corrected command vectors.

        **Contract**: a pure function of its arguments (no state carried
        from tick to tick), computed with elementwise arithmetic and
        ``np.where`` branch selection — so a row's correction never
        depends on the batch it shares.
        """


@dataclass
class FixedMitigator(Mitigator):
    """Algorithm 1 with the paper's fixed H2 correction.

    Attributes
    ----------
    max_rate:
        The fixed maximum insulin rate (U/h) commanded on predicted H2.
    """

    max_rate: float = 5.0

    def __post_init__(self):
        if self.max_rate <= 0:
            raise ValueError(f"max_rate must be positive, got {self.max_rate}")

    def correct_mask(self, alerts: np.ndarray, hazards: np.ndarray,
                     tick) -> Tuple[np.ndarray, np.ndarray]:
        h1 = hazards == int(HazardType.H1)
        rate = np.where(alerts, np.where(h1, 0.0, self.max_rate),
                        tick.rate[0])
        bolus = np.where(alerts, 0.0, tick.bolus[0])
        return rate, bolus


@dataclass
class ProportionalMitigator(Mitigator):
    """Context-dependent ``f(rho(mu(x)), u)`` for H2 (extension).

    Doses insulin proportionally to the glucose excess over target,
    discounted by insulin already on board — gentler than the fixed maximum
    and less likely to cause rebound hypoglycemia.
    """

    isf: float = 50.0        # mg/dL per U
    bg_target: float = 120.0
    max_rate: float = 5.0
    horizon_h: float = 2.0   # spread the correction over this many hours

    def __post_init__(self):
        if self.isf <= 0 or self.max_rate <= 0 or self.horizon_h <= 0:
            raise ValueError("isf, max_rate and horizon_h must be positive")

    def correct_mask(self, alerts: np.ndarray, hazards: np.ndarray,
                     tick) -> Tuple[np.ndarray, np.ndarray]:
        # branch selection via np.where (elementwise maximum / minimum
        # round identically at any batch width)
        needed_units = np.maximum(
            (tick.bg[0] - self.bg_target) / self.isf - tick.iob[0], 0.0)
        corrective = np.minimum(needed_units / self.horizon_h, self.max_rate)
        h1 = hazards == int(HazardType.H1)
        rate = np.where(alerts, np.where(h1, 0.0, corrective), tick.rate[0])
        bolus = np.where(alerts, 0.0, tick.bolus[0])
        return rate, bolus


@dataclass
class PredictiveMitigator(Mitigator):
    """Rule + prediction mitigation in the KnowSafe style (second family).

    KnowSafe (PAPERS.md) combines domain knowledge rules with data-driven
    prediction to pick the corrective action.  This strategy does the
    lightweight analogue on the monitor's own context: a linear
    short-horizon glucose forecast ``bg + bg' * horizon_min`` chooses the
    H2 dose, and a knowledge rule vetoes *any* insulin — even on a
    predicted H2 — when the forecast falls below ``suspend_bg`` (dosing
    into a predicted drop risks rebound hypoglycemia).  H1 alerts suspend
    insulin exactly like Algorithm 1.

    Attributes
    ----------
    isf:
        Insulin sensitivity (mg/dL per U) used to size the correction.
    bg_target:
        Glucose target the forecast excess is measured against.
    horizon_min:
        Forecast horizon in minutes; the H2 dose is spread over it.
    max_rate:
        Cap on the corrective insulin rate (U/h).
    suspend_bg:
        Forecast threshold (mg/dL) below which the knowledge rule
        commands zero insulin regardless of the predicted hazard.
    """

    isf: float = 50.0
    bg_target: float = 120.0
    horizon_min: float = 30.0
    max_rate: float = 5.0
    suspend_bg: float = 90.0

    def __post_init__(self):
        if self.isf <= 0 or self.max_rate <= 0 or self.horizon_min <= 0:
            raise ValueError("isf, max_rate and horizon_min must be positive")

    def correct_mask(self, alerts: np.ndarray, hazards: np.ndarray,
                     tick) -> Tuple[np.ndarray, np.ndarray]:
        predicted = tick.bg[0] + tick.bg_rate[0] * self.horizon_min
        needed_units = np.maximum(
            (predicted - self.bg_target) / self.isf - tick.iob[0], 0.0)
        corrective = np.minimum(needed_units * (60.0 / self.horizon_min),
                                self.max_rate)
        suspend = (hazards == int(HazardType.H1)) \
            | (predicted < self.suspend_bg)
        rate = np.where(alerts, np.where(suspend, 0.0, corrective),
                        tick.rate[0])
        bolus = np.where(alerts, 0.0, tick.bolus[0])
        return rate, bolus
