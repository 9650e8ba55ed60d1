"""Identifiable-Virtual-Patient (IVP) glucose model — the Glucosym substrate.

The paper's primary platform pairs the OpenAPS controller with the Glucosym
simulator, whose patient models follow the "identifiable virtual patient"
model of Kanderian et al. (2009) — the Bergman/Sherwin-family minimal model
the paper also reuses for its MPC baseline monitor (Eq. 6)::

    dI_sc/dt  = ID(t) / (tau1 * CI) - I_sc / tau1
    dI_p/dt   = (I_sc - I_p) / tau2
    dI_eff/dt = -p2 * I_eff + p2 * SI * I_p
    dG/dt     = -(GEZI + I_eff) * G + EGP + RA(t)

with ``ID(t)`` the insulin delivery in micro-units/min, ``I_sc``/``I_p`` the
subcutaneous/plasma insulin concentrations, ``I_eff`` the insulin effect,
``G`` blood glucose (mg/dL) and ``RA(t)`` the meal glucose rate of
appearance.

The dynamics live in :mod:`repro.patients.kernels` as batched column
kernels, which the lock-step engine (:mod:`repro.simulation.vector`)
integrates; this module holds the parameters and the cohort.

Substitution note (see DESIGN.md §3): Glucosym ships parameters fit to 10
real adults; we generate a deterministic 10-patient cohort (A..J) spanning
the published population ranges (Kanderian et al. report e.g. mean tau1=49
min, tau2=47 min, CI=2010 mL/min, p2=0.0106 1/min, SI=7.1e-4 mL/uU/min,
GEZI=2.2e-3 1/min, EGP=1.33 mg/dL/min).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

import numpy as np

from .base import PatientModel
from .kernels import IVPColumns, ivp_basal_rate

__all__ = ["IVPParams", "IVPPatient", "GLUCOSYM_COHORT", "glucosym_patient",
           "meal_ra"]

#: glucose distribution volume per kg of body weight (dL/kg)
GLUCOSE_VOLUME_DL_PER_KG = 1.6

#: meal absorption time constant (minutes)
MEAL_TAU = 40.0


def meal_ra(s: float, carbs_mg: float, v_g: float) -> float:
    """Rate of appearance (mg/dL/min) of one meal, *s* minutes after start.

    The gamma-shaped absorption curve ``(carbs/V_g) * s/tau^2 * exp(-s/tau)``
    whose integral equals the total carb load.  The lock-step engine
    precomputes each run's meal timeline through this function.
    """
    return (carbs_mg / v_g) * (s / MEAL_TAU ** 2) * math.exp(-s / MEAL_TAU)


@dataclass(frozen=True)
class IVPParams:
    """Parameters of the IVP model for one patient.

    Attributes
    ----------
    SI:    insulin sensitivity (mL/uU/min)
    GEZI:  glucose effectiveness at zero insulin (1/min)
    EGP:   endogenous glucose production (mg/dL/min)
    CI:    insulin clearance (mL/min)
    tau1:  subcutaneous insulin absorption time constant (min)
    tau2:  plasma insulin time constant (min)
    p2:    insulin action time constant (1/min)
    BW:    body weight (kg)
    """

    SI: float
    GEZI: float
    EGP: float
    CI: float
    tau1: float
    tau2: float
    p2: float
    BW: float

    def __post_init__(self):
        for field in ("SI", "GEZI", "EGP", "CI", "tau1", "tau2", "p2", "BW"):
            if getattr(self, field) <= 0:
                raise ValueError(f"IVP parameter {field} must be positive")

    @property
    def glucose_volume_dl(self) -> float:
        """Glucose distribution volume in dL."""
        return GLUCOSE_VOLUME_DL_PER_KG * self.BW

    @property
    def open_loop_glucose(self) -> float:
        """Equilibrium BG with zero insulin: EGP / GEZI."""
        return self.EGP / self.GEZI


#: Deterministic synthetic cohort standing in for Glucosym's 10 adult fits.
#: Keys match the paper's patient naming (patientA .. patientJ, Table VIII).
GLUCOSYM_COHORT: Dict[str, IVPParams] = {
    "A": IVPParams(SI=5.0e-4, GEZI=2.5e-3, EGP=1.20, CI=1800.0, tau1=55.0, tau2=50.0, p2=0.0100, BW=70.0),
    "B": IVPParams(SI=7.1e-4, GEZI=2.2e-3, EGP=1.33, CI=2010.0, tau1=49.0, tau2=47.0, p2=0.0106, BW=75.0),
    "C": IVPParams(SI=9.5e-4, GEZI=1.5e-3, EGP=1.50, CI=2200.0, tau1=45.0, tau2=42.0, p2=0.0130, BW=82.0),
    "D": IVPParams(SI=3.8e-4, GEZI=3.2e-3, EGP=1.05, CI=1650.0, tau1=60.0, tau2=55.0, p2=0.0080, BW=64.0),
    "E": IVPParams(SI=6.2e-4, GEZI=2.0e-3, EGP=1.45, CI=1900.0, tau1=50.0, tau2=49.0, p2=0.0110, BW=78.0),
    "F": IVPParams(SI=8.4e-4, GEZI=1.8e-3, EGP=1.60, CI=2350.0, tau1=42.0, tau2=40.0, p2=0.0140, BW=88.0),
    "G": IVPParams(SI=4.4e-4, GEZI=2.8e-3, EGP=0.95, CI=1700.0, tau1=58.0, tau2=52.0, p2=0.0090, BW=60.0),
    "H": IVPParams(SI=7.8e-4, GEZI=2.4e-3, EGP=1.25, CI=2100.0, tau1=47.0, tau2=45.0, p2=0.0120, BW=73.0),
    "I": IVPParams(SI=5.6e-4, GEZI=2.1e-3, EGP=1.40, CI=1950.0, tau1=52.0, tau2=48.0, p2=0.0095, BW=80.0),
    "J": IVPParams(SI=1.05e-3, GEZI=1.3e-3, EGP=1.70, CI=2450.0, tau1=40.0, tau2=38.0, p2=0.0150, BW=92.0),
}


class IVPPatient(PatientModel):
    """A virtual patient governed by the IVP (Kanderian) model.

    The kernels' state is ``[I_sc, I_p, I_eff, G]``: insulin
    concentrations in micro-units/mL, insulin effect in 1/min and glucose
    in mg/dL.
    """

    def __init__(self, params: IVPParams, name: str = "ivp",
                 target_glucose: float = 120.0):
        super().__init__(name)
        self.params = params
        self._cols = IVPColumns.from_params([params])
        self.target_glucose = float(target_glucose)

    def basal_rate(self, target_glucose: float | None = None) -> float:
        """Closed-form steady-state basal in U/h for a fasting target.

        From the steady state of the IVP equations:
        ``ID = CI * (EGP/G* - GEZI) / SI`` micro-units/min.
        """
        target = self.target_glucose if target_glucose is None else target_glucose
        if target <= 0:
            raise ValueError(f"target glucose must be positive, got {target}")
        return float(ivp_basal_rate(self._cols, np.array([float(target)]))[0])


def glucosym_patient(patient_id: str, target_glucose: float = 120.0) -> IVPPatient:
    """Construct a cohort patient by letter id (``"A"`` .. ``"J"``)."""
    key = patient_id.upper().replace("PATIENT", "")
    if key not in GLUCOSYM_COHORT:
        raise KeyError(
            f"unknown Glucosym patient {patient_id!r}; "
            f"available: {sorted(GLUCOSYM_COHORT)}")
    return IVPPatient(GLUCOSYM_COHORT[key], name=f"glucosym/{key}",
                      target_glucose=target_glucose)
