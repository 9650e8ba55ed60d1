"""Controller interface and the paper's four-way control-action taxonomy.

The safety-context framework classifies every controller output into one of
four discrete control actions (Table I of the paper)::

    u1 = decrease_insulin    u2 = increase_insulin
    u3 = stop_insulin        u4 = keep_insulin

relative to the patient's scheduled basal rate (within
:data:`ACTION_TOLERANCE`; a bolus always counts as an increase).  The
controllers here hold a patient's tuning; the lock-step engine
(:mod:`repro.simulation.vector`) reads it into per-row columns and runs
the control laws and the action classification over whole batches.
"""

from __future__ import annotations

import enum

from .iob import InsulinActivityCurve

__all__ = ["ControlAction", "Controller"]

#: rate difference (U/h) below which a command counts as "keep"
ACTION_TOLERANCE = 0.01


class ControlAction(enum.IntEnum):
    """The paper's discrete control actions u1..u4."""

    DECREASE = 1   # u1: less insulin than scheduled basal
    INCREASE = 2   # u2: more insulin than scheduled basal
    STOP = 3       # u3: zero insulin
    KEEP = 4       # u4: scheduled basal

    @property
    def channel(self) -> str:
        """Trace channel name (``u1`` .. ``u4``)."""
        return f"u{int(self)}"

    @classmethod
    def channels(cls):
        """All four channel names, in index order."""
        return tuple(a.channel for a in cls)


class Controller:
    """An APS controller's tuning for one patient.

    Attributes
    ----------
    scheduled_basal:
        The profile basal rate (U/h): the reference of the action
        classification and the offset of the net IOB.
    curve:
        The insulin activity curve behind the controller's IOB.
    """

    def __init__(self, name: str, scheduled_basal: float, dia: float = 300.0,
                 peak: float = 75.0):
        if scheduled_basal < 0:
            raise ValueError(f"scheduled basal must be >= 0, got {scheduled_basal}")
        self.name = name
        self.scheduled_basal = float(scheduled_basal)
        self.curve = InsulinActivityCurve(dia=dia, peak=peak)
