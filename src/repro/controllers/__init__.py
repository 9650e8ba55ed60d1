"""APS controllers: oref0-style OpenAPS and the Basal-Bolus protocol.

Each controller holds one patient's tuning; the lock-step engine
(:mod:`repro.simulation.vector`) runs their control laws over whole
batches and classifies the commands into the paper's four control actions
u1..u4 (:class:`~repro.controllers.base.ControlAction`).
"""

from .base import ControlAction, Controller
from .basal_bolus import BasalBolusController
from .iob import InsulinActivityCurve
from .openaps import OpenAPSController

__all__ = [
    "ControlAction",
    "Controller",
    "BasalBolusController",
    "InsulinActivityCurve",
    "OpenAPSController",
]
