"""Common infrastructure for virtual Type-1-diabetes patient models.

Both glucose simulators in this repository (the Kanderian identifiable-
virtual-patient model behind Glucosym, :mod:`repro.patients.ivp`, and the
Dalla Man UVA/Padova S2013 model, :mod:`repro.patients.t1d`) are continuous
ODE systems driven by two inputs: subcutaneous insulin delivery and meal
carbohydrates.  This module provides the shared interface; the dynamics and
their fixed-step RK4 integration live in the batched kernels of
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
import math
import sys
from dataclasses import dataclass

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
        Carbohydrate content in grams: 0, or at least the smallest normal
        float (a subnormal load overflows the S2013 gastric-emptying
        terms, which divide by it).
    """

    time: float
    carbs: float

    def __post_init__(self):
        if not math.isfinite(self.time):
            raise ValueError(f"meal time must be finite, got {self.time}")
        if not (math.isfinite(self.carbs) and self.carbs >= 0):
            raise ValueError(
                f"meal carbs must be finite and >= 0, got {self.carbs}")
        if 0 < self.carbs < sys.float_info.min:
            raise ValueError(
                f"meal carbs must be 0 or at least {sys.float_info.min}, "
                f"got the subnormal {self.carbs}")


class PatientModel(abc.ABC):
    """A virtual patient: one cohort member's model parameters.

    The lock-step engine (:mod:`repro.simulation.vector`) integrates
    ``params`` with the batched kernels of :mod:`repro.patients.kernels`
    at a fixed RK4 sub-step of :attr:`dt_integration` minutes.
    """

    #: integration sub-step in minutes
    dt_integration: float = 1.0

    def __init__(self, name: str):
        self.name = name

    @abc.abstractmethod
    def basal_rate(self, target_glucose: float) -> float:
        """Basal insulin rate (U/h) that holds *target_glucose* at rest."""
