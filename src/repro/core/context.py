"""System context for the safety-monitor framework (Section III-A).

The monitor infers a multi-dimensional *context* from the controller's
input-output interface: the paper's transformations
``mu(x_t) = (BG, dBG/dt, IOB, dIOB/dt)`` plus the commanded insulin action.
:class:`ContextVector` is that inference for one control cycle; it is
produced by the closed loop (:mod:`repro.simulation.vector`) and consumed by
every monitor implementation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict

from ..controllers import ControlAction

__all__ = ["ContextVector", "Region", "CONTEXT_CHANNELS"]

#: trace channel names of the context variables (matching Table I notation)
CONTEXT_CHANNELS = ("BG", "BG'", "IOB", "IOB'")


class Region(enum.Enum):
    """The paper's three mutually exclusive state-space regions."""

    SAFE = "X*"
    POSSIBLY_HAZARDOUS = "X*<h"
    HAZARDOUS = "Xh"


@dataclass(frozen=True)
class ContextVector:
    """System context at one control cycle.

    Attributes
    ----------
    t:
        Time in minutes.
    bg:
        CGM glucose reading (mg/dL) — the monitor's fault-free sensor view.
    bg_rate:
        dBG/dt estimate (mg/dL per minute).
    iob:
        Insulin on board (U), estimated from delivered insulin.
    iob_rate:
        dIOB/dt estimate (U per minute).
    rate:
        Commanded basal rate (U/h) under scrutiny (post fault injection).
    bolus:
        Commanded bolus (U) under scrutiny.
    action:
        Discrete classification of the command (u1..u4).
    """

    t: float
    bg: float
    bg_rate: float
    iob: float
    iob_rate: float
    rate: float
    bolus: float
    action: ControlAction

    def channels(self) -> Dict[str, float]:
        """Values of the mu(x) channels plus the one-hot action channels."""
        values = {
            "BG": self.bg,
            "BG'": self.bg_rate,
            "IOB": self.iob,
            "IOB'": self.iob_rate,
            "rate": self.rate,
            "bolus": self.bolus,
        }
        for act in ControlAction:
            values[act.channel] = 1.0 if act == self.action else 0.0
        return values
