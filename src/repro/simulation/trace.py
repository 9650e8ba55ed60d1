"""Simulation trace recording and conversion to STL traces.

A :class:`SimulationTrace` stores the full per-cycle record of one closed-loop
run: true and sensed glucose, the controller's command before and after fault
injection, the monitor verdicts, what the pump delivered, and the fault
metadata.  Ground-truth hazard labels (Section IV-C2) are computed lazily
from the *true* glucose — faults corrupt the controller, not the plant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..fi import FaultKind, FaultSpec, FaultTarget
from ..hazards import HazardLabel, label_hazards
from ..stl import Trace
from .features import FEATURE_NAMES, context_matrix

__all__ = ["SimulationTrace", "TRACE_ARRAY_FIELDS",
           "TRACE_COLUMN_DTYPES", "trace_to_arrays", "trace_from_arrays"]

#: the per-step array channels of a SimulationTrace, in field order —
#: the serialisation schema shared by NpzDirectorySink and the store
TRACE_ARRAY_FIELDS: Tuple[str, ...] = (
    "t", "true_bg", "cgm", "reading", "ctrl_rate", "ctrl_bolus", "cmd_rate",
    "cmd_bolus", "action", "iob", "iob_rate", "final_rate", "final_bolus",
    "delivered_rate", "delivered_bolus", "alert", "alert_hazard", "mitigated")

#: dtype of each channel — the schema the lock-step engine's columnar
#: assembly allocates up front (float channels are float64, discrete ones
#: the platform default int, flags bool)
TRACE_COLUMN_DTYPES: Dict[str, np.dtype] = {
    name: np.dtype(np.float64) for name in TRACE_ARRAY_FIELDS}
TRACE_COLUMN_DTYPES["action"] = np.dtype(np.int_)
TRACE_COLUMN_DTYPES["alert_hazard"] = np.dtype(np.int_)
TRACE_COLUMN_DTYPES["alert"] = np.dtype(np.bool_)
TRACE_COLUMN_DTYPES["mitigated"] = np.dtype(np.bool_)


@dataclass(frozen=True)
class SimulationTrace:
    """Immutable record of one closed-loop simulation."""

    # identity
    platform: str          # "glucosym" or "t1ds2013"
    patient_id: str
    label: str
    dt: float
    # per-step arrays (length n_steps)
    t: np.ndarray              # minutes at sensing time
    true_bg: np.ndarray        # plant blood glucose (mg/dL)
    cgm: np.ndarray            # clean sensor reading (monitor's view)
    reading: np.ndarray        # controller input (post fault injection)
    ctrl_rate: np.ndarray      # controller output (U/h), pre-FI
    ctrl_bolus: np.ndarray     # controller bolus (U), pre-FI
    cmd_rate: np.ndarray       # command post-FI (what the monitor inspects)
    cmd_bolus: np.ndarray
    action: np.ndarray         # int codes of ControlAction for cmd_*
    iob: np.ndarray            # loop-side IOB estimate (U)
    iob_rate: np.ndarray       # dIOB/dt (U/min)
    final_rate: np.ndarray     # post-mitigation command
    final_bolus: np.ndarray
    delivered_rate: np.ndarray  # what the pump executed
    delivered_bolus: np.ndarray
    alert: np.ndarray          # monitor alerts (bool)
    alert_hazard: np.ndarray   # predicted hazard type per alert (0/1/2)
    mitigated: np.ndarray      # mitigation replaced the command (bool)
    # fault metadata
    fault: Optional[FaultSpec] = None

    def __len__(self) -> int:
        return len(self.t)

    @property
    def fault_step(self) -> Optional[int]:
        """Scheduled fault-activation step ``tf`` (None for fault-free runs)."""
        return None if self.fault is None else self.fault.start_step

    @cached_property
    def hazard_label(self) -> HazardLabel:
        """Ground-truth hazard annotation from the true glucose."""
        return label_hazards(self.true_bg)

    @property
    def hazardous(self) -> bool:
        return self.hazard_label.any_hazard

    @property
    def first_alert(self) -> Optional[int]:
        """Index of the first monitor alert (None if never alerted)."""
        idx = np.flatnonzero(self.alert)
        return int(idx[0]) if idx.size else None

    def time_to_hazard(self) -> Optional[float]:
        """TTH = th - tf in minutes (None when not computable)."""
        if self.fault is None or not self.hazardous:
            return None
        return (self.hazard_label.first_hazard - self.fault.start_step) * self.dt

    def reaction_time(self) -> Optional[float]:
        """th - td in minutes; positive = early detection (Section V-D)."""
        if not self.hazardous or self.first_alert is None:
            return None
        return (self.hazard_label.first_hazard - self.first_alert) * self.dt

    def to_stl_trace(self) -> Trace:
        """Monitor-view STL trace: the
        :func:`~repro.simulation.features.context_matrix` columns (BG, BG',
        IOB, IOB', rate, bolus, u1..u4) under
        :data:`~repro.simulation.features.FEATURE_NAMES`."""
        return Trace(dict(zip(FEATURE_NAMES, context_matrix(self).T)),
                     dt=self.dt)

    def summary(self) -> str:
        haz = "hazardous" if self.hazardous else "safe"
        fault = self.fault.label if self.fault else "fault-free"
        return (f"{self.platform}/{self.patient_id} [{fault}] {len(self)} steps, "
                f"{haz}, alerts={int(self.alert.sum())}")


def trace_to_arrays(trace: SimulationTrace) -> Dict[str, np.ndarray]:
    """Flatten a trace into a self-describing dict of numpy arrays.

    Array channels are stored as-is; identity metadata (platform, patient,
    label, dt and the fault spec fields) ride along as 0-d object-free
    entries, so one ``np.savez`` payload round-trips the full trace.
    """
    payload = {name: getattr(trace, name) for name in TRACE_ARRAY_FIELDS}
    payload["platform"] = np.array(trace.platform)
    payload["patient_id"] = np.array(trace.patient_id)
    payload["label"] = np.array(trace.label)
    payload["dt"] = np.array(trace.dt)
    if trace.fault is not None:
        payload["fault_kind"] = np.array(trace.fault.kind.value)
        payload["fault_target"] = np.array(trace.fault.target.value)
        payload["fault_start"] = np.array(trace.fault.start_step)
        payload["fault_duration"] = np.array(trace.fault.duration_steps)
        payload["fault_value"] = np.array(trace.fault.value)
    return payload


def trace_from_arrays(payload: Mapping[str, np.ndarray]) -> SimulationTrace:
    """Rebuild a :class:`SimulationTrace` from a :func:`trace_to_arrays`
    payload (a dict or an open ``NpzFile``)."""
    fault = None
    if "fault_kind" in payload:
        fault = FaultSpec(kind=FaultKind(str(payload["fault_kind"])),
                          target=FaultTarget(str(payload["fault_target"])),
                          start_step=int(payload["fault_start"]),
                          duration_steps=int(payload["fault_duration"]),
                          value=float(payload["fault_value"]))
    arrays = {name: np.asarray(payload[name]) for name in TRACE_ARRAY_FIELDS}
    return SimulationTrace(platform=str(payload["platform"]),
                           patient_id=str(payload["patient_id"]),
                           label=str(payload["label"]),
                           dt=float(payload["dt"]), fault=fault, **arrays)
