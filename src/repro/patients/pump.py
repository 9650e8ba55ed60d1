"""Insulin pump actuator model.

The pump executes the (possibly monitor-corrected) controller command.  Real
pumps clamp commands to a hardware maximum and quantize basal rates down to
an increment grid; both matter for the paper's experiments because
mitigation (Algorithm 1) commands either zero insulin (H1) or the maximum
rate (H2).  The lock-step engine applies these limits to every row.
"""

from __future__ import annotations

__all__ = ["InsulinPump"]


class InsulinPump:
    """Basal-rate insulin pump with quantization and limits.

    Parameters
    ----------
    max_basal:
        Hardware maximum basal rate (U/h).
    max_bolus:
        Maximum single bolus (U).
    increment:
        Basal-rate quantization step (U/h); typical pumps use 0.05 U/h.
    """

    def __init__(self, max_basal: float = 10.0, max_bolus: float = 10.0,
                 increment: float = 0.05):
        if max_basal <= 0 or max_bolus <= 0:
            raise ValueError("pump limits must be positive")
        if increment <= 0:
            raise ValueError(f"increment must be positive, got {increment}")
        self.max_basal = float(max_basal)
        self.max_bolus = float(max_bolus)
        self.increment = float(increment)
