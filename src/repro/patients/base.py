"""Common infrastructure for virtual Type-1-diabetes patient models.

Both glucose simulators in this repository (the Kanderian identifiable-
virtual-patient model behind Glucosym, :mod:`repro.patients.ivp`, and the
Dalla Man UVA/Padova S2013 model, :mod:`repro.patients.t1d`) are continuous
ODE systems driven by two inputs: subcutaneous insulin delivery and meal
carbohydrates.  This module provides the shared interface; the fixed-step
RK4 integration lives with the batched kernels in
:mod:`repro.patients.kernels`.

Units
-----
- time: minutes
- glucose concentration: mg/dL
- insulin delivery commands: U/h (basal-rate style) and U (boluses)
- carbohydrates: grams
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List

import numpy as np

__all__ = ["Meal", "PatientModel", "UU_PER_UNIT", "PMOL_PER_UNIT"]

#: micro-units of insulin per pump unit
UU_PER_UNIT = 1.0e6
#: picomoles of insulin per pump unit (1 U = 6 nmol)
PMOL_PER_UNIT = 6000.0
#: numerical glucose floor (mg/dL): far below survivable levels, but keeps
#: logarithmic risk indices well-defined during extreme overdose scenarios
GLUCOSE_FLOOR = 10.0


@dataclass(frozen=True)
class Meal:
    """A carbohydrate intake event.

    Attributes
    ----------
    time:
        Minutes from simulation start at which the meal begins.
    carbs:
        Carbohydrate content in grams.
    """

    time: float
    carbs: float

    def __post_init__(self):
        if self.carbs < 0:
            raise ValueError(f"meal carbs must be >= 0, got {self.carbs}")


class PatientModel(abc.ABC):
    """Abstract virtual patient driven by insulin and meals.

    Concrete models implement :meth:`derivatives` over their own state vector
    plus the steady-state helpers used to initialise simulations at a chosen
    fasting glucose.  The generic :meth:`step` advances one APS control cycle
    (default 5 minutes) with fixed-step RK4 sub-integration.
    """

    #: integration sub-step in minutes
    dt_integration: float = 1.0

    def __init__(self, name: str):
        self.name = name
        self.t = 0.0
        self._meals: List[Meal] = []
        self._pending_bolus_uu = 0.0  # micro-units awaiting infusion

    # ------------------------------------------------------------------
    # model interface
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def state(self) -> np.ndarray:
        """Current ODE state vector (copy)."""

    @property
    @abc.abstractmethod
    def glucose(self) -> float:
        """Current blood glucose concentration in mg/dL."""

    @property
    def sensor_glucose(self) -> float:
        """Glucose seen by a CGM (defaults to blood glucose).

        The S2013 model overrides this with its interstitial compartment.
        """
        return self.glucose

    @abc.abstractmethod
    def derivatives(self, t: float, x: np.ndarray, insulin_uu_min: float) -> np.ndarray:
        """State derivative given insulin infusion in micro-units/minute."""

    @abc.abstractmethod
    def reset(self, init_glucose: float) -> None:
        """Reset to steady state at the patient's basal, then set BG."""

    @abc.abstractmethod
    def basal_rate(self, target_glucose: float) -> float:
        """Basal insulin rate (U/h) that holds *target_glucose* at rest."""

    # ------------------------------------------------------------------
    # inputs
    # ------------------------------------------------------------------
    def add_meal(self, meal: Meal) -> None:
        """Schedule a carbohydrate intake (relative to simulation start)."""
        self._meals.append(meal)

    def meals(self) -> List[Meal]:
        return list(self._meals)

    def _meals_starting_in(self, t0: float, t1: float) -> List[Meal]:
        return [m for m in self._meals if t0 <= m.time < t1]

    @abc.abstractmethod
    def _ingest(self, carbs_g: float) -> None:
        """Model-specific handling of a meal impulse."""

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------
    def step(self, basal_u_h: float, bolus_u: float = 0.0,
             duration: float = 5.0) -> float:
        """Advance the model by *duration* minutes.

        Parameters
        ----------
        basal_u_h:
            Commanded basal rate in U/h, held for the whole step.
        bolus_u:
            Additional bolus in U, infused uniformly over the first
            integration sub-step.
        duration:
            Step length in minutes (the APS control period).

        Returns
        -------
        float
            Blood glucose (mg/dL) at the end of the step.
        """
        if basal_u_h < 0:
            raise ValueError(f"basal rate must be >= 0 U/h, got {basal_u_h}")
        if bolus_u < 0:
            raise ValueError(f"bolus must be >= 0 U, got {bolus_u}")
        self._pending_bolus_uu += bolus_u * UU_PER_UNIT
        basal_uu_min = basal_u_h * UU_PER_UNIT / 60.0

        n_sub = max(1, int(round(duration / self.dt_integration)))
        dt = duration / n_sub
        for _ in range(n_sub):
            for meal in self._meals_starting_in(self.t, self.t + dt):
                self._ingest(meal.carbs)
            infusion = basal_uu_min
            if self._pending_bolus_uu > 0:
                infusion += self._pending_bolus_uu / dt
                self._pending_bolus_uu = 0.0
            self._advance(dt, infusion)
            self.t += dt
        return self.glucose

    @abc.abstractmethod
    def _advance(self, dt: float, insulin_uu_min: float) -> None:
        """Integrate the state by *dt* minutes under constant infusion."""
