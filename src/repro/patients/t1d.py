"""UVA/Padova T1DS2013-style virtual patient — the Dalla Man S2013 model.

The paper's second platform pairs a Basal-Bolus controller with the
FDA-accepted UVA-Padova Type 1 Diabetes Simulator S2013.  The commercial
simulator's equations are published (Dalla Man et al., "The UVA/PADOVA Type 1
Diabetes Simulator: New Features", J Diabetes Sci Technol 2014); this module
implements that ODE system:

- two-compartment glucose kinetics (plasma ``Gp``, tissue ``Gt``);
- endogenous glucose production inhibited by a delayed insulin signal;
- insulin-dependent utilization with the S2013 hypoglycemia risk
  amplification;
- renal excretion above a glucose threshold;
- two-compartment plasma/liver insulin kinetics;
- two-compartment subcutaneous insulin absorption;
- three-compartment gastro-intestinal tract (stomach solid/liquid + gut) with
  the nonlinear gastric-emptying rate;
- a subcutaneous glucose compartment read by the CGM.

The equations live in :mod:`repro.patients.kernels` as batched column
kernels, which the lock-step engine (:mod:`repro.simulation.vector`)
integrates; this module holds the parameters and the cohort.

Substitution note (see DESIGN.md §3): the commercial simulator's 30-patient
parameter file is proprietary.  We synthesise a 10-adult cohort around the
published adult-average parameters; each patient's ``kp1`` is solved so the
patient is exactly at steady state with a physiologic basal plasma insulin,
which guarantees a well-posed basal rate for every cohort member.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

import numpy as np

from .base import PatientModel
from .kernels import (T1DColumns, t1d_basal_rate, t1d_solve_basal_state,
                      t1d_solve_kp1)

__all__ = ["T1DParams", "T1DPatient", "T1DS2013_COHORT", "t1d_patient"]


@dataclass(frozen=True)
class T1DParams:
    """Parameters of the S2013 model (adult units, per-kg where applicable)."""

    BW: float = 78.0        # body weight (kg)
    # glucose kinetics
    VG: float = 1.88        # glucose distribution volume (dL/kg)
    k1: float = 0.065       # Gp -> Gt transfer (1/min)
    k2: float = 0.079       # Gt -> Gp transfer (1/min)
    # endogenous glucose production
    kp1: float = 2.70       # maximal EGP (mg/kg/min); solved per patient
    kp2: float = 0.0021     # EGP suppression by glucose (1/min)
    kp3: float = 0.009      # EGP suppression by delayed insulin (mg/kg/min per pmol/L)
    ki: float = 0.0079      # delayed insulin signal rate (1/min)
    # utilization
    Fsnc: float = 1.0       # insulin-independent utilization (mg/kg/min)
    Vm0: float = 2.50       # basal insulin-dependent utilization (mg/kg/min)
    Vmx: float = 0.047      # insulin sensitivity of utilization (mg/kg/min per pmol/L)
    Km0: float = 225.59     # Michaelis constant (mg/kg)
    p2u: float = 0.0331     # insulin action rate (1/min)
    # renal excretion
    ke1: float = 0.0005     # renal clearance (1/min)
    ke2: float = 339.0      # renal threshold (mg/kg)
    # insulin kinetics
    VI: float = 0.05        # insulin distribution volume (L/kg)
    m1: float = 0.190       # liver insulin rates (1/min)
    m2: float = 0.484
    m3: float = 0.285
    m4: float = 0.194
    # subcutaneous insulin absorption
    kd: float = 0.0164      # Isc1 -> Isc2 (1/min)
    ka1: float = 0.0018     # Isc1 -> plasma (1/min)
    ka2: float = 0.0182     # Isc2 -> plasma (1/min)
    # gastro-intestinal tract
    kmax: float = 0.0558    # max gastric emptying (1/min)
    kmin: float = 0.0080    # min gastric emptying (1/min)
    kabs: float = 0.057     # intestinal absorption (1/min)
    kgri: float = 0.0558    # grinding rate (1/min)
    f: float = 0.90         # fraction of absorbed glucose appearing in plasma
    b: float = 0.82         # gastric-emptying shape parameters
    d: float = 0.010
    # subcutaneous glucose (CGM) compartment
    ksc: float = 0.0766     # 1/min
    # S2013 hypoglycemia risk amplification of utilization
    r1: float = 0.05        # risk gain on Vmx (calibrated, see DESIGN.md)
    r2: float = 1.44        # risk exponent
    Gb: float = 120.0       # basal (target) glucose (mg/dL)
    Gth: float = 60.0       # hypoglycemia saturation threshold (mg/dL)

    def __post_init__(self):
        positive = ("BW", "VG", "k1", "k2", "kp2", "kp3", "ki", "Vm0", "Vmx",
                    "Km0", "p2u", "VI", "m1", "m2", "m3", "m4", "kd", "ka1",
                    "ka2", "kmax", "kmin", "kabs", "kgri", "ksc", "Gb")
        for field in positive:
            if getattr(self, field) <= 0:
                raise ValueError(f"S2013 parameter {field} must be positive")


def _cols_of(p: T1DParams) -> T1DColumns:
    return T1DColumns.from_params([p])


def _solve_basal_state(p: T1DParams, glucose: float):
    """Closed-form steady state of the S2013 model at fasting *glucose*.

    Returns ``(Gt, Ib, IIRb)``: tissue glucose (mg/kg), basal plasma insulin
    (pmol/L) and basal infusion (pmol/kg/min).  Raises ``ValueError`` when the
    parameters cannot hold the requested glucose (negative basal insulin).
    """
    gt, ib, iirb = t1d_solve_basal_state(_cols_of(p), np.array([float(glucose)]))
    return float(gt[0]), float(ib[0]), float(iirb[0])


def solve_kp1(p: T1DParams, basal_insulin: float, glucose: float | None = None) -> float:
    """``kp1`` that puts the patient at steady state with *basal_insulin* pmol/L."""
    glucose_arr = None if glucose is None else np.array([float(glucose)])
    return float(t1d_solve_kp1(_cols_of(p), float(basal_insulin),
                               glucose_arr)[0])


class T1DPatient(PatientModel):
    """A virtual T1D patient governed by the Dalla Man S2013 model.

    ``target_glucose`` anchors the chronic insulin reference ``Ib`` of the
    remote insulin action (see :func:`~repro.patients.kernels.t1d_init_state`).
    """

    def __init__(self, params: T1DParams, name: str = "t1d",
                 target_glucose: float | None = None):
        super().__init__(name)
        self.params = params
        self._cols = _cols_of(params)
        self.target_glucose = params.Gb if target_glucose is None else float(target_glucose)
        # an unsustainable anchor fails here, not in the first simulation
        _solve_basal_state(params, self.target_glucose)

    def basal_rate(self, target_glucose: float | None = None) -> float:
        """Steady-state basal in U/h for a fasting target (closed form)."""
        target = self.target_glucose if target_glucose is None else target_glucose
        return float(t1d_basal_rate(self._cols, np.array([float(target)]))[0])


def _make_cohort() -> Dict[str, T1DParams]:
    """Synthetic 10-adult cohort around published adult-average parameters.

    Each entry varies insulin sensitivity (Vmx, kp3), utilization (Vm0),
    kinetics and body weight, then solves ``kp1`` so the patient is at steady
    state with the listed basal plasma insulin — guaranteeing a physiologic,
    well-posed basal for every cohort member.
    """
    base = T1DParams()
    # overrides: (BW, Vmx, kp3, Vm0, ki, p2u, kd, VG, basal insulin pmol/L)
    spec = {
        "P01": (78.0, 0.047, 0.0090, 2.50, 0.0079, 0.0331, 0.0164, 1.88, 60.0),
        "P02": (66.0, 0.034, 0.0065, 2.30, 0.0070, 0.0280, 0.0150, 1.80, 75.0),
        "P03": (85.0, 0.060, 0.0110, 2.70, 0.0090, 0.0380, 0.0180, 1.95, 50.0),
        "P04": (92.0, 0.028, 0.0055, 2.20, 0.0065, 0.0250, 0.0145, 1.75, 90.0),
        "P05": (71.0, 0.052, 0.0100, 2.60, 0.0085, 0.0350, 0.0170, 1.90, 55.0),
        "P06": (59.0, 0.041, 0.0080, 2.40, 0.0074, 0.0300, 0.0158, 1.84, 68.0),
        "P07": (81.0, 0.067, 0.0125, 2.85, 0.0095, 0.0400, 0.0188, 2.00, 45.0),
        "P08": (75.0, 0.037, 0.0072, 2.35, 0.0072, 0.0290, 0.0152, 1.82, 72.0),
        "P09": (88.0, 0.056, 0.0105, 2.65, 0.0088, 0.0360, 0.0175, 1.92, 52.0),
        "P10": (63.0, 0.045, 0.0085, 2.45, 0.0077, 0.0320, 0.0160, 1.86, 63.0),
    }
    cohort = {}
    for name, (bw, vmx, kp3, vm0, ki, p2u, kd, vg, ib) in spec.items():
        params = replace(base, BW=bw, Vmx=vmx, kp3=kp3, Vm0=vm0, ki=ki,
                         p2u=p2u, kd=kd, VG=vg)
        params = replace(params, kp1=solve_kp1(params, ib))
        cohort[name] = params
    return cohort


#: Deterministic synthetic cohort standing in for the commercial simulator's
#: 10 adult patients.
T1DS2013_COHORT: Dict[str, T1DParams] = _make_cohort()


def t1d_patient(patient_id: str, target_glucose: float | None = None) -> T1DPatient:
    """Construct a cohort patient by id (``"P01"`` .. ``"P10"``)."""
    key = patient_id.upper()
    if key not in T1DS2013_COHORT:
        raise KeyError(
            f"unknown T1DS2013 patient {patient_id!r}; "
            f"available: {sorted(T1DS2013_COHORT)}")
    return T1DPatient(T1DS2013_COHORT[key], name=f"t1ds2013/{key}",
                      target_glucose=target_glucose)
