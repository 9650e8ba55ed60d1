"""Basal-Bolus controller — the paper's second platform controller.

Implements the hospital basal-bolus insulin protocol the paper pairs with the
UVA-Padova T1DS2013 simulator: a fixed scheduled basal rate plus periodic
correction boluses computed with the patient's correction factor
(``(BG - target) / ISF``), with a refractory period between corrections, a
reduced basal below a conservative threshold and a low-glucose suspend.
The protocol runs over whole batches in the lock-step engine
(``_BasalBolusBatch`` in :mod:`repro.simulation.vector`); this class holds
one patient's tuning.
"""

from __future__ import annotations

from .base import Controller

__all__ = ["BasalBolusController"]


class BasalBolusController(Controller):
    """Scheduled basal + correction boluses.

    Parameters
    ----------
    basal:
        Scheduled basal rate (U/h), typically the patient's steady-state
        basal.
    isf:
        Correction (sensitivity) factor, mg/dL per U.
    target:
        Correction target (mg/dL).
    correction_threshold:
        BG above which a correction bolus is considered.
    correction_interval:
        Minimum minutes between corrections (refractory period).
    reduce_threshold:
        BG below which the basal is halved (gentle insulin decrease).
    suspend_threshold:
        BG below which delivery stops entirely.
    max_bolus:
        Cap on a single correction bolus (U).
    """

    def __init__(self, basal: float, isf: float = 50.0, target: float = 120.0,
                 correction_threshold: float = 150.0,
                 correction_interval: float = 120.0,
                 reduce_threshold: float = 110.0,
                 suspend_threshold: float = 80.0,
                 max_bolus: float = 3.0, dia: float = 300.0, peak: float = 75.0):
        super().__init__("basal-bolus", basal, dia=dia, peak=peak)
        if isf <= 0:
            raise ValueError(f"ISF must be positive, got {isf}")
        if not suspend_threshold < reduce_threshold < correction_threshold:
            raise ValueError(
                "thresholds must satisfy suspend < reduce < correction, got "
                f"{suspend_threshold}, {reduce_threshold}, {correction_threshold}")
        self.isf = float(isf)
        self.target = float(target)
        self.correction_threshold = float(correction_threshold)
        self.correction_interval = float(correction_interval)
        self.reduce_threshold = float(reduce_threshold)
        self.suspend_threshold = float(suspend_threshold)
        self.max_bolus = float(max_bolus)
