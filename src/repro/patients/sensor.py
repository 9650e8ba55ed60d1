"""Continuous Glucose Monitor (CGM) reporting range.

The paper assumes sensor data received by controller and monitor are
fault-free (Section II, "Hazard Prediction"), so the lock-step engine's
CGM passes the patient model's sensor-compartment glucose through,
saturated at the hardware's reporting range.
"""

__all__ = ["CGM_RANGE"]

#: physical reporting range of common CGM hardware (mg/dL)
CGM_RANGE = (40.0, 400.0)
