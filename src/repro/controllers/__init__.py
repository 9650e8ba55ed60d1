"""APS controllers: oref0-style OpenAPS port and Basal-Bolus protocol.

All controllers share the :class:`~repro.controllers.base.Controller`
interface and classify their raw commands into the paper's four control
actions u1..u4 (:class:`~repro.controllers.base.ControlAction`).
"""

from .base import ControlAction, Controller, ControllerDecision, classify_action
from .basal_bolus import BasalBolusController
from .iob import InsulinActivityCurve, IOBCalculator
from .openaps import OpenAPSController

__all__ = [
    "ControlAction",
    "Controller",
    "ControllerDecision",
    "classify_action",
    "BasalBolusController",
    "InsulinActivityCurve",
    "IOBCalculator",
    "OpenAPSController",
]
