"""Virtual patient models, CGM range and insulin pump limits.

Two glucose-simulator substrates (DESIGN.md §1):

- :mod:`repro.patients.ivp` — the Kanderian identifiable-virtual-patient
  model used by Glucosym, with a 10-adult synthetic cohort (patients A..J);
- :mod:`repro.patients.t1d` — the Dalla Man UVA/Padova S2013 model, with a
  10-adult synthetic cohort (P01..P10).

Both models' dynamics are implemented once, as batched column kernels in
:mod:`repro.patients.kernels`, which the lock-step engine
(:mod:`repro.simulation.vector`) integrates; the patient classes here hold
each cohort member's parameters.
"""

from .base import Meal, PatientModel
from .cohort import COHORTS, all_patients, make_patient, patient_ids
from .ivp import GLUCOSYM_COHORT, IVPParams, IVPPatient, glucosym_patient
from .kernels import IVPColumns, T1DColumns
from .pump import InsulinPump
from .t1d import T1DS2013_COHORT, T1DParams, T1DPatient, t1d_patient

__all__ = [
    "Meal",
    "PatientModel",
    "COHORTS",
    "all_patients",
    "make_patient",
    "patient_ids",
    "GLUCOSYM_COHORT",
    "IVPColumns",
    "T1DColumns",
    "IVPParams",
    "IVPPatient",
    "glucosym_patient",
    "InsulinPump",
    "T1DS2013_COHORT",
    "T1DParams",
    "T1DPatient",
    "t1d_patient",
]
