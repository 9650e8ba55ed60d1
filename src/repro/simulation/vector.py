"""Lock-step vectorized batch simulation engine: the closed loop.

This module is the one definition of the paper's closed loop (Fig. 5a)::

    patient --(interstitial glucose)--> CGM --> [FI on input] -->
    controller --(rate, bolus)--> [FI on output] -->
    monitor (context inference, UCA detection) --> [mitigation] -->
    pump --> patient

The monitor taps the *fault-free* sensor stream and the *post-fault*
command, and fault injection perturbs only the controller's view and
outputs, never the plant or the ground-truth labels.  Every campaign,
experiment, search and benchmark runs it; a single run is a one-scenario
:func:`~repro.simulation.batch.run_campaign` call.

It simulates a whole *batch* of runs simultaneously as matrices — the
``(S, B)`` ODE state advanced by one batched RK4 (the kernels of
:mod:`repro.patients.kernels`), per-row parameter vectors so mixed
patients batch together, vectorized controller decisions (``np.where``
over the branch structure of OpenAPS / Basal-Bolus), vectorized
fault-injection masks, IOB via a precomputed activity-curve table, and
columnar trace assembly that fills ``(n_steps, B)`` channel matrices
directly.

The engine's contract is **width invariance**: a run's trace is the same,
byte for byte, whatever batch it shares, whatever
:data:`~repro.parallel.LOCKSTEP_WIDTH` and worker count; and a golden
fixture (``tests/simulation/data/golden_traces.json``) pins the traces
themselves.  Three design rules deliver the invariance:

- the kernels use only elementwise ufuncs, never reductions across rows;
- the IOB/activity tables are precomputed through the curve's float
  methods (one evaluation per (step, delivery-step) lag, cached), and each
  step's band of deliveries is summed with ``np.add.accumulate`` (never
  ``np.sum``), so every row adds its terms left to right, in delivery
  order, at any width;
- every controller/fault/pump expression selects its branches with
  ``np.where`` (elementwise ufuncs round identically at any batch width).

Monitored and mitigated runs (the paper's Table VII closed loop,
Algorithm 1) batch too: each tick the engine assembles the live cycle as a
single-cycle ``(1, B)`` context batch, evaluates each monitor through one
``observe_batch`` call per tick that continues its rows' per-column
state — and lets the mitigator rewrite the commanded ``(rate, bolus)``
vectors on the alerted rows through its columnar
:meth:`~repro.core.mitigation.Mitigator.correct_mask` path (with a per-row
``correct`` fallback for custom strategies).  The correction lands
*before* the pump/plant stage of the same tick, so alerts feed back into
the delivered insulin; the divergence this creates between rows is
ordinary per-row data, just like the fault-mask HOLD registers.  See
``docs/mitigation.md`` for the full contract.
"""

from __future__ import annotations

import copy
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..controllers.base import ACTION_TOLERANCE
from ..controllers.iob import InsulinActivityCurve
from ..core.mitigation import Mitigator
from ..core.monitor import MonitorState, MonitorVerdict, SafetyMonitor
from ..fi.faults import FaultKind, FaultTarget, VARIABLE_RANGES
from ..hazards import HazardType
from ..patients import IVPPatient, Meal, make_patient
from ..patients.base import UU_PER_UNIT
from ..patients.ivp import meal_ra
from ..patients.kernels import (IVPColumns, T1DColumns, ivp_init_state,
                                ivp_rk4_advance, t1d_init_state,
                                t1d_rk4_advance)
from ..patients.kernels import GP as _GP, GS as _GS, QSTO1 as _QSTO1
from ..patients.pump import InsulinPump
from ..patients.sensor import CGM_RANGE
from .executor import MonitorFactory, PROFILE_CACHE, SimRun
from .features import ContextBatch
from .trace import TRACE_ARRAY_FIELDS, TRACE_COLUMN_DTYPES, SimulationTrace

__all__ = ["run_batch", "titrate_isf_batch", "warm_profiles"]


# ----------------------------------------------------------------------
# IOB / activity tables
# ----------------------------------------------------------------------

#: (dia, peak, n_steps, dt) -> (F, A, band_start); banded storage —
#: F[k, i] / A[k, i] describe the delivery of step ``band_start[k] + i``
#: at step ``k``, so memory is O(n_steps * dia/dt), not O(n_steps^2)
_IOB_TABLE_CACHE: Dict[tuple, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
_IOB_TABLE_CACHE_MAX = 8


def _iob_tables(curve: InsulinActivityCurve, n_steps: int, dt: float):
    """Per-(step, delivery) decay tables, evaluated through the curve's
    float methods :meth:`~repro.controllers.iob.InsulinActivityCurve.iob_fraction`
    and ``activity`` at each lag: the delivery of step ``j`` is one
    impulse at its cycle midpoint ``j * dt + dt / 2``.  ``band_start[k]``
    is the first delivery step still inside the DIA window at step ``k``
    (older terms are exactly zero and not stored)."""
    key = (curve.dia, curve.peak, n_steps, dt)
    cached = _IOB_TABLE_CACHE.get(key)
    if cached is not None:
        return cached
    band_start = np.zeros(n_steps, dtype=np.intp)
    rows: List[List[Tuple[float, float]]] = []
    for k in range(n_steps):
        t = k * dt
        first = k
        row: List[Tuple[float, float]] = []  # j descending
        for j in range(k - 1, -1, -1):
            lag = t - (j * dt + dt / 2.0)
            if lag >= curve.dia:
                break
            row.append((curve.iob_fraction(lag), curve.activity(lag)))
            first = j
        band_start[k] = first
        row.reverse()  # j ascending, aligned with band_start[k] + i
        rows.append(row)
    width = max((len(row) for row in rows), default=0) or 1
    frac = np.zeros((n_steps, width))
    act = np.zeros((n_steps, width))
    for k, row in enumerate(rows):
        for i, (f, a) in enumerate(row):
            frac[k, i] = f
            act[k, i] = a
    if len(_IOB_TABLE_CACHE) >= _IOB_TABLE_CACHE_MAX:
        _IOB_TABLE_CACHE.pop(next(iter(_IOB_TABLE_CACHE)))
    _IOB_TABLE_CACHE[key] = (frac, act, band_start)
    return frac, act, band_start


def _band_sum(band: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``sum_i band[i] * weights[i]`` over the ``(n_terms, B)`` delivery
    band, added left to right from ``0.0`` in delivery order.

    ``np.add.accumulate`` adds in row order at every width; ``np.sum`` and
    ``np.add.reduce`` may not (at ``B=1`` they switch to pairwise
    summation).  The final ``+ 0.0`` maps an all-``-0.0`` band to
    ``+0.0`` and changes no other value.
    """
    if len(band) == 0:
        return np.zeros(band.shape[1])
    terms = band * weights[:len(band), None]
    return np.add.accumulate(terms, axis=0)[-1] + 0.0


# ----------------------------------------------------------------------
# vectorized fault injection
# ----------------------------------------------------------------------

_KIND_CODE = {kind: code for code, kind in enumerate(FaultKind)}


class _FaultBatch:
    """Row-wise fault state: per-row spec columns plus HOLD registers.

    While a row's fault is active (``start_step <= step < end_step``) the
    targeted value becomes: TRUNCATE the range floor for the glucose input,
    else 0; HOLD the last value seen before the window (the current value
    when the window opens at step 0); MAX/MIN the range extremes; ADD/SUB
    the value plus/minus the magnitude; SCALE the value times it — then
    clamped to :data:`~repro.fi.faults.VARIABLE_RANGES`.  A fault on the
    controller-internal IOB *also* corrupts the commanded bolus while
    active (the bolus path of the output faults)."""

    def __init__(self, runs: Sequence[SimRun]):
        B = len(runs)
        self.kind_code = np.zeros(B, dtype=np.int64)
        self.start = np.full(B, -1, dtype=np.int64)
        self.end = np.full(B, -1, dtype=np.int64)
        self.value = np.zeros(B)
        self.lo = np.zeros(B)
        self.hi = np.zeros(B)
        self.is_glucose = np.zeros(B, dtype=bool)
        self.is_rate = np.zeros(B, dtype=bool)
        self.is_bolus_path = np.zeros(B, dtype=bool)  # BOLUS or IOB target
        self.is_iob = np.zeros(B, dtype=bool)
        for b, run in enumerate(runs):
            spec = run.fault
            if spec is None:
                continue
            self.kind_code[b] = _KIND_CODE[spec.kind]
            self.start[b] = spec.start_step
            self.end[b] = spec.end_step
            self.value[b] = spec.value
            self.lo[b], self.hi[b] = VARIABLE_RANGES[spec.target]
            self.is_glucose[b] = spec.target is FaultTarget.GLUCOSE
            self.is_rate[b] = spec.target is FaultTarget.RATE
            self.is_bolus_path[b] = spec.target in (FaultTarget.BOLUS,
                                                    FaultTarget.IOB)
            self.is_iob[b] = spec.target is FaultTarget.IOB
        self.is_command = self.is_rate | self.is_bolus_path
        self.any_glucose = bool(self.is_glucose.any())
        self.any_command = bool(self.is_command.any())
        self.any_iob = bool(self.is_iob.any())
        self.held_reading = np.full(B, np.nan)
        self.held_rate = np.full(B, np.nan)
        self.held_bolus = np.full(B, np.nan)
        self.held_iob = np.full(B, np.nan)

    def _active(self, step: int) -> np.ndarray:
        return (self.start <= step) & (step < self.end)

    def _apply(self, current: np.ndarray, held: np.ndarray,
               input_floor: bool) -> np.ndarray:
        """The corrupted value of every row (callers mask the result)."""
        kc = self.kind_code
        truncated = self.lo if input_floor else np.where(self.is_glucose,
                                                         self.lo, 0.0)
        out = np.where(kc == _KIND_CODE[FaultKind.TRUNCATE], truncated,
              np.where(kc == _KIND_CODE[FaultKind.HOLD],
                       np.where(np.isnan(held), current, held),
              np.where(kc == _KIND_CODE[FaultKind.MAX], self.hi,
              np.where(kc == _KIND_CODE[FaultKind.MIN], self.lo,
              np.where(kc == _KIND_CODE[FaultKind.ADD], current + self.value,
              np.where(kc == _KIND_CODE[FaultKind.SUB], current - self.value,
                       current * self.value))))))
        return np.minimum(np.maximum(out, self.lo), self.hi)

    def corrupt_reading(self, cgm: np.ndarray, step: int) -> np.ndarray:
        if not self.any_glucose:
            return cgm
        active = self._active(step)
        latch = self.is_glucose & ~active
        self.held_reading[latch] = cgm[latch]
        mask = self.is_glucose & active
        if not mask.any():
            return cgm
        return np.where(mask, self._apply(cgm, self.held_reading, True), cgm)

    def corrupt_iob(self, iob: np.ndarray, step: int) -> np.ndarray:
        if not self.any_iob:
            return iob
        active = self._active(step)
        latch = self.is_iob & ~active
        self.held_iob[latch] = iob[latch]
        mask = self.is_iob & active
        if not mask.any():
            return iob
        return np.where(mask, self._apply(iob, self.held_iob, False), iob)

    def corrupt_command(self, rate: np.ndarray, bolus: np.ndarray,
                        step: int) -> Tuple[np.ndarray, np.ndarray]:
        if not self.any_command:
            return rate, bolus
        active = self._active(step)
        latch = self.is_command & ~active
        self.held_rate[latch] = rate[latch]
        self.held_bolus[latch] = bolus[latch]
        if not (self.is_command & active).any():
            return rate, bolus
        rate_mask = self.is_rate & active
        bolus_mask = self.is_bolus_path & active
        rate = np.where(rate_mask,
                        self._apply(rate, self.held_rate, False), rate)
        bolus = np.where(bolus_mask,
                         self._apply(bolus, self.held_bolus, False), bolus)
        return rate, bolus


# ----------------------------------------------------------------------
# vectorized controllers
# ----------------------------------------------------------------------

class _OpenAPSBatch:
    """oref0 determine-basal over rows (see :mod:`repro.controllers.openaps`).

    Per cycle: ``bgi = -activity * isf * cycle``; the deviation
    extrapolates ``delta - bgi`` over 30 minutes; ``eventual = bg - iob *
    isf + deviation``.  Below ``suspend`` the rate is 0.  Below target the
    low temp removes the projected surplus at full gain (0 when the naive
    projection ``bg - iob * isf`` is under ``suspend`` too); at or above
    target the high temp adds half the required insulin, capped by
    ``max_iob`` and ``max_basal``.  Every tuning column is read off the
    per-patient controller instances ``make_controller`` builds.
    """

    def __init__(self, controllers: Sequence):
        def col(attr):
            return np.array([float(getattr(c, attr)) for c in controllers])

        self.basal = col("scheduled_basal")
        self.isf = col("isf")
        self.target = col("target")
        self.max_basal = col("max_basal")
        self.max_iob = col("max_iob")
        self.suspend = col("suspend_threshold")
        self._last_glucose: Optional[np.ndarray] = None

    def decide(self, step: int, dt: float, reading: np.ndarray,
               iob: np.ndarray, activity: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray]:
        # the first cycle projects over the controller's default 5-minute
        # cycle; later cycles over the run's dt
        cycle = 5.0 if step == 0 else dt
        if self._last_glucose is None:
            delta = np.zeros_like(reading)
        else:
            delta = reading - self._last_glucose
        bgi = -activity * self.isf * cycle
        deviation = (30.0 / cycle) * (delta - bgi)
        eventual = reading - iob * self.isf + deviation
        naive = reading - iob * self.isf

        insulin_req = (eventual - self.target) / self.isf
        # low side: full gain, zero temp when both projections are very low
        rate_low = np.maximum(self.basal + insulin_req, 0.0)
        rate_low = np.where(naive < self.suspend, 0.0, rate_low)
        # high side: half gain under the max-IOB cap
        req_hi = np.where(iob + insulin_req > self.max_iob,
                          np.maximum(self.max_iob - iob, 0.0), insulin_req)
        rate_hi = np.minimum(
            np.maximum(self.basal + req_hi * (60.0 / 120.0), 0.0),
            self.max_basal)
        rate = np.where(reading < self.suspend, 0.0,
                        np.where(eventual < self.target, rate_low, rate_hi))
        self._last_glucose = reading
        return rate, np.zeros_like(rate)


class _BasalBolusBatch:
    """Basal-Bolus protocol over rows (see
    :mod:`repro.controllers.basal_bolus`): basal 0 below ``suspend``, half
    basal below ``reduce_threshold``, else the scheduled basal plus, above
    ``correction_threshold`` and at least ``correction_interval`` minutes
    after the last one, a correction bolus ``(bg - target) / isf - iob``
    clamped to ``[0, max_bolus]``.  Tuning columns come from the controller
    instances."""

    def __init__(self, controllers: Sequence):
        def col(attr):
            return np.array([float(getattr(c, attr)) for c in controllers])

        self.basal = col("scheduled_basal")
        self.isf = col("isf")
        self.target = col("target")
        self.correction_threshold = col("correction_threshold")
        self.correction_interval = col("correction_interval")
        self.reduce_threshold = col("reduce_threshold")
        self.suspend = col("suspend_threshold")
        self.max_bolus = col("max_bolus")
        self._last_correction = np.full(len(self.basal), np.nan)

    def decide(self, step: int, t: float, reading: np.ndarray,
               iob: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        due = np.isnan(self._last_correction) \
            | (t - self._last_correction >= self.correction_interval)
        suspended = reading < self.suspend
        reduced = reading < self.reduce_threshold
        correcting = (reading > self.correction_threshold) & due
        bolus_value = np.minimum(
            np.maximum((reading - self.target) / self.isf - iob, 0.0),
            self.max_bolus)
        rate = np.where(suspended, 0.0,
                        np.where(reduced, self.basal / 2.0, self.basal))
        bolus = np.where(~suspended & ~reduced & correcting, bolus_value, 0.0)
        self._last_correction = np.where(bolus > 0.0, t,
                                         self._last_correction)
        return rate, bolus


def _classify(rate: np.ndarray, bolus: np.ndarray,
              reference: np.ndarray) -> np.ndarray:
    """:class:`~repro.controllers.ControlAction` codes of the commands
    against the scheduled basal *reference*: a bolus is an increase, a
    rate within ``ACTION_TOLERANCE`` of 0 a stop, then decrease / increase
    / keep by comparison with the reference."""
    return np.where(bolus > 0.0, 2,
           np.where(rate <= ACTION_TOLERANCE, 3,
           np.where(rate < reference - ACTION_TOLERANCE, 1,
           np.where(rate > reference + ACTION_TOLERANCE, 2, 4)))
           ).astype(np.int_, copy=False)


# ----------------------------------------------------------------------
# per-tick monitor / mitigator evaluation
# ----------------------------------------------------------------------

class _MonitorBatch:
    """Column-wise monitor evaluation, one live control cycle at a time.

    The factory is invoked once per distinct patient in the batch (the
    factory contract is that repeated calls return equivalent monitors, so
    callers should keep it cheap — learn thresholds or train models
    before the campaign, not inside the factory).  Rows are grouped by
    monitor instance, and each group keeps the per-column state of its
    rows (:meth:`~repro.core.monitor.SafetyMonitor.init_state`, fresh at
    run start).  Every tick each group makes one single-cycle
    ``observe_batch`` call that advances that state, which is exact by the
    resume contract: a column's verdicts equal one ``observe_batch`` call
    over its whole stream.
    """

    def __init__(self, runs: Sequence[SimRun],
                 monitor_factory: MonitorFactory):
        per_patient: Dict[str, SafetyMonitor] = {}
        grouped: Dict[int, Tuple[SafetyMonitor, List[int]]] = {}
        for b, run in enumerate(runs):
            if run.patient_id not in per_patient:
                per_patient[run.patient_id] = monitor_factory(run.patient_id)
            monitor = per_patient[run.patient_id]
            grouped.setdefault(id(monitor), (monitor, []))[1].append(b)
        self.groups: List[Tuple[SafetyMonitor, np.ndarray, MonitorState]] = [
            (monitor, np.asarray(rows, dtype=np.intp),
             monitor.init_state(len(rows)))
            for monitor, rows in grouped.values()]

    def observe(self, tick: ContextBatch) -> Tuple[np.ndarray, np.ndarray]:
        """Evaluate one cycle; returns the ``(B,)`` alert flags and
        hazard codes."""
        n_rows = tick.shape[1]
        alerts = np.zeros(n_rows, dtype=bool)
        hazards = np.zeros(n_rows, dtype=np.int_)
        for monitor, rows, state in self.groups:
            sub = tick if len(rows) == n_rows else tick.take_columns(rows)
            group_alerts, group_hazards = monitor.observe_batch(sub,
                                                                state=state)
            alerts[rows] = group_alerts[0]
            hazards[rows] = group_hazards[0]
        return alerts, hazards


class _MitigatorBatch:
    """Row-wise command correction (Algorithm 1) for one live cycle.

    Strategies that override
    :meth:`~repro.core.mitigation.Mitigator.correct_mask` (the built-in
    families) correct all alerted rows in one vectorized call.  Everything
    else gets the column-loop fallback: one ``reset`` deep copy of the
    mitigator per batch row — reset per run, since a fully-resetting
    mitigator is indistinguishable from a fresh one — each driven through
    the per-cycle ``correct`` for its own row's alerts only.
    """

    def __init__(self, mitigator: Mitigator, n_rows: int):
        self.columnar = (type(mitigator).correct_mask
                         is not Mitigator.correct_mask)
        if self.columnar:
            mitigator.reset()
            self.mitigator: Optional[Mitigator] = mitigator
            self.rows: Optional[List[Mitigator]] = None
        else:
            self.mitigator = None
            self.rows = []
            for _ in range(n_rows):
                clone = copy.deepcopy(mitigator)
                clone.reset()  # the run-start reset
                self.rows.append(clone)

    def correct(self, alerts: np.ndarray, hazards: np.ndarray,
                tick: ContextBatch, cmd_rate: np.ndarray,
                cmd_bolus: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        if self.columnar:
            corrected = self.mitigator.correct_mask(alerts, hazards, tick)
            if corrected is None:
                raise ValueError(
                    f"{type(self.mitigator).__name__}.correct_mask returned "
                    "None; a columnar override must return the corrected "
                    "(rate, bolus) vectors")
            rate, bolus = corrected
            return (np.asarray(rate, dtype=float),
                    np.asarray(bolus, dtype=float))
        rate = cmd_rate.copy()
        bolus = cmd_bolus.copy()
        for b in np.flatnonzero(alerts):
            # the verdict is rebuilt from the codes: per-rule `triggered`
            # names are not materialised by observe_batch, so custom
            # mitigators must not depend on them under batching
            verdict = MonitorVerdict(alert=True,
                                     hazard=HazardType(int(hazards[b])))
            ctx = next(tick.iter_column(b))
            rate[b], bolus[b] = self.rows[b].correct(verdict, ctx)
        return rate, bolus


# ----------------------------------------------------------------------
# batched patient plants
# ----------------------------------------------------------------------

class _IVPBatch:
    def __init__(self, params: Sequence):
        self.cols = IVPColumns.from_params(params)

    def reset(self, init_glucose: np.ndarray, target: float) -> np.ndarray:
        return ivp_init_state(self.cols, init_glucose)

    def glucose(self, x: np.ndarray) -> np.ndarray:
        return x[3]

    def sensor_glucose(self, x: np.ndarray) -> np.ndarray:
        return x[3]

    def ingest(self, x, rows, carbs_mg) -> None:
        pass  # IVP meals enter through the precomputed RA timelines

    def advance(self, x, dt, infusion, ra_stages) -> np.ndarray:
        return ivp_rk4_advance(self.cols, x, dt, infusion, ra_stages)


class _T1DBatch:
    def __init__(self, params: Sequence):
        self.cols = T1DColumns.from_params(params)
        self.basal_insulin: Optional[np.ndarray] = None
        self.last_meal_mg = np.zeros(len(params))

    def reset(self, init_glucose: np.ndarray, target: float) -> np.ndarray:
        state, ib_ref = t1d_init_state(self.cols, init_glucose,
                                       np.full(len(init_glucose),
                                               float(target)))
        self.basal_insulin = ib_ref
        self.last_meal_mg = np.zeros(len(init_glucose))
        return state

    def glucose(self, x: np.ndarray) -> np.ndarray:
        return x[_GP] / self.cols.VG

    def sensor_glucose(self, x: np.ndarray) -> np.ndarray:
        return x[_GS]

    def ingest(self, x, rows, carbs_mg) -> None:
        x[_QSTO1, rows] += carbs_mg
        self.last_meal_mg[rows] = carbs_mg

    def advance(self, x, dt, infusion, ra_stages) -> np.ndarray:
        return t1d_rk4_advance(self.cols, x, dt, infusion,
                               self.last_meal_mg, self.basal_insulin)


# ----------------------------------------------------------------------
# batched fault-free titration (controller-profile cold start)
# ----------------------------------------------------------------------

def titrate_isf_batch(patients: Sequence, target: float = 120.0,
                      bolus_u: float = 1.0,
                      horizon_min: float = 300.0) -> np.ndarray:
    """Titrate each patient's insulin sensitivity factor (mg/dL per U) —
    one column per patient model, advanced in lock step on the kernels.

    Each column rests at *target* on its basal, takes a *bolus_u* bolus
    over the first integration sub-step and records the lowest glucose
    over *horizon_min* minutes of 5-minute cycles; the ISF is the drop per
    unit, floored at 5 mg/dL/U.  Titration is the dominant cold-start cost
    of a campaign (one 300-minute simulation per cohort member), so the
    whole cohort runs as one ``(n_states, B)`` batch; every expression is
    elementwise, so a column's ISF does not depend on its batch.

    All patients must be of one model family; S2013 patients must have
    their chronic insulin reference anchored at *target* (the
    configuration every campaign path builds).
    """
    patients = list(patients)
    if not patients:
        return np.zeros(0)
    kind = type(patients[0])
    if not all(isinstance(p, kind) for p in patients):
        raise ValueError("lock-step titration requires one patient model "
                         "family per batch")
    params = [p.params for p in patients]
    if isinstance(patients[0], IVPPatient):
        plant = _IVPBatch(params)
    else:
        off_target = [p.name for p in patients
                      if p.target_glucose != float(target)]
        if off_target:
            raise ValueError(
                f"S2013 titration anchors the insulin reference at the "
                f"patient's target_glucose; {off_target} are not at "
                f"{target}")
        plant = _T1DBatch(params)

    n_cols = len(patients)
    basal = np.array([p.basal_rate(target) for p in patients])
    state = plant.reset(np.full(n_cols, float(target)), target)

    duration = 5.0  # titration steps at the default APS cycle
    n_steps = int(horizon_min / duration)
    n_sub = max(1, int(round(duration / kind.dt_integration)))
    dt_sub = duration / n_sub
    basal_uu_min = basal * UU_PER_UNIT / 60.0
    bolus_uu = bolus_u * UU_PER_UNIT
    low = None
    for step in range(n_steps):
        for i in range(n_sub):
            if step == 0 and i == 0:
                infusion = basal_uu_min + bolus_uu / dt_sub
            else:
                infusion = basal_uu_min
            state = plant.advance(state, dt_sub, infusion, None)
        glucose = plant.glucose(state)
        low = glucose.copy() if low is None else np.minimum(low, glucose)
    isf = (target - low) / bolus_u
    return np.where(isf < 5.0, 5.0, isf)


def _seed_profiles(patients: Dict[str, object], target: float) -> None:
    """Batch-titrate the cohort members whose controller profile is not in
    the process-wide :data:`~repro.simulation.executor.PROFILE_CACHE` yet
    and seed the cache, so the subsequent per-patient ``make_controller``
    calls are pure lookups."""
    missing = {pid: patient for pid, patient in patients.items()
               if (patient.name, target) not in PROFILE_CACHE}
    if not missing:
        return
    isf = titrate_isf_batch(list(missing.values()), target)
    for value, (pid, patient) in zip(isf, missing.items()):
        profile = {"basal": patient.basal_rate(target), "isf": float(value),
                   "target": target}
        PROFILE_CACHE.get_or_compute((patient.name, target),
                                     lambda profile=profile: profile)


def warm_profiles(platform: str, patient_ids: Sequence[str],
                  target: float = 120.0) -> Dict[str, Dict[str, float]]:
    """Titrate a cohort's controller profiles in one lock-step batch.

    Seeds the process-wide profile cache (the profiles
    :func:`~repro.simulation.batch.controller_profile` would compute one
    patient at a time) and returns ``patient_id -> profile``.  Call before a cold campaign to
    pay the titration cost once, vectorized, instead of per patient.
    """
    from .batch import controller_profile  # deferred: batch imports us too

    patients = {pid: make_patient(platform, pid, target_glucose=target)
                for pid in dict.fromkeys(patient_ids)}
    _seed_profiles(patients, target)
    return {pid: controller_profile(patient, target)
            for pid, patient in patients.items()}


# ----------------------------------------------------------------------
# meal precomputation
# ----------------------------------------------------------------------

def _substep_times(n_steps: int, n_sub: int, dt_sub: float) -> List[float]:
    """Substep start times, accumulated in float (``t += dt_sub`` per
    substep)."""
    times, t = [], 0.0
    for _ in range(n_steps * n_sub):
        times.append(t)
        t += dt_sub
    return times

def _precompute_ivp_ra(meals: Sequence[Sequence[Meal]], params,
                       sub_times: List[float], dt_sub: float
                       ) -> Optional[np.ndarray]:
    """Per-(substep, stage, row) meal rate-of-appearance timelines.

    Evaluated through :func:`repro.patients.ivp.meal_ra` at the exact RK4
    stage times, with each meal anchored at the start of the substep whose
    window contains it and the meals' rates summed in ingestion order.
    """
    if not any(meals_b for meals_b in meals):
        return None
    n_subs = len(sub_times)
    ra = np.zeros((n_subs, 3, len(meals)))
    for b, meals_b in enumerate(meals):
        if not meals_b:
            continue
        params_b = params[b]
        v_g = params_b.glucose_volume_dl
        anchors = []  # ingestion order: (anchor time, carbs mg)
        for m, t0 in enumerate(sub_times):
            for meal in meals_b:
                if t0 <= meal.time < t0 + dt_sub:
                    anchors.append((t0, meal.carbs * 1000.0))
            for stage, ts in enumerate((t0, t0 + dt_sub / 2.0, t0 + dt_sub)):
                total = 0.0
                for start, carbs_mg in anchors:
                    s = ts - start
                    if s <= 0:
                        continue
                    total += meal_ra(s, carbs_mg, v_g)
                ra[m, stage, b] = total
    return ra


def _precompute_t1d_ingestion(meals: Sequence[Sequence[Meal]],
                              sub_times: List[float], dt_sub: float
                              ) -> Dict[int, List[Tuple[int, float]]]:
    """substep index -> [(row, carbs mg)] ingestion events, in row order."""
    events: Dict[int, List[Tuple[int, float]]] = {}
    for b, meals_b in enumerate(meals):
        for m, t0 in enumerate(sub_times):
            for meal in meals_b:
                if t0 <= meal.time < t0 + dt_sub:
                    events.setdefault(m, []).append((b, meal.carbs * 1000.0))
    return events


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------

def run_batch(platform: str, runs: Sequence[SimRun], n_steps: int,
              dt: float = 5.0, target: float = 120.0,
              meals: Optional[Sequence[Sequence[Meal]]] = None,
              monitor_factory: Optional[MonitorFactory] = None,
              mitigator: Optional[Mitigator] = None
              ) -> List[SimulationTrace]:
    """Simulate every run in *runs* simultaneously, in lock step.

    Returns one :class:`SimulationTrace` per run, in run order, each
    independent of the rest of the batch (ideal CGM clipped to
    :data:`~repro.patients.sensor.CGM_RANGE`, standard
    :class:`~repro.patients.pump.InsulinPump`).  With a *monitor_factory*
    the engine evaluates each patient's monitor column-wise every tick and
    records the alert channels; with a *mitigator* too, alerted rows carry
    a corrected per-row ``(rate, bolus)`` command into the pump/plant
    stage of the same tick (Algorithm 1).  A mitigator without a monitor
    never fires.

    Meal disturbances come from each run's ``SimRun.meals`` schedule by
    default; the explicit *meals* argument (one event sequence per run)
    overrides them for callers that batch ad-hoc scenarios.
    """
    from .batch import _PLATFORM_CONTROLLERS, make_controller

    B = len(runs)
    if B == 0:
        return []
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    controller_kind = _PLATFORM_CONTROLLERS.get(platform)
    if controller_kind is None:
        raise KeyError(f"unknown platform {platform!r}; "
                       f"available: {sorted(_PLATFORM_CONTROLLERS)}")
    if meals is None:
        # plan-path scheduling: each SimRun carries its own meal events
        meals = [getattr(run, "meals", ()) or () for run in runs]
    if len(meals) != B:
        raise ValueError("meals must align with runs")

    # one patient model + titrated controller per distinct cohort member:
    # the controller instances are the source of every tuning column
    # below (profile basal/ISF and class defaults alike).  The titration
    # runs as one lock-step batch over the uncached members before the
    # controllers are built from the now-warm cache.
    patients: Dict[str, object] = {}
    for run in runs:
        if run.patient_id not in patients:
            patients[run.patient_id] = make_patient(platform, run.patient_id,
                                                    target_glucose=target)
    _seed_profiles(patients, target)
    controllers: Dict[str, object] = {
        pid: make_controller(platform, patient, target)
        for pid, patient in patients.items()}
    trace_ids = {pid: (p.name.split("/", 1)[1] if "/" in p.name else p.name)
                 for pid, p in patients.items()}
    params = [patients[run.patient_id].params for run in runs]
    row_controllers = [controllers[run.patient_id] for run in runs]

    if controller_kind == "openaps":
        plant = _IVPBatch(params)
        controller = _OpenAPSBatch(row_controllers)
    else:
        plant = _T1DBatch(params)
        controller = _BasalBolusBatch(row_controllers)
    basal = controller.basal  # scheduled basal: classify reference and
    # the net-IOB delivery offset

    # one net-IOB series per row, from the platform controller's activity
    # curve (one class, so one curve per batch): the controller's own IOB
    # and the trace's monitor-side iob channel
    frac_tab, act_tab, band_start = _iob_tables(row_controllers[0].curve,
                                                n_steps, dt)
    need_activity = controller_kind == "openaps"
    faults = _FaultBatch(runs)
    pump = InsulinPump()
    monitors = (_MonitorBatch(runs, monitor_factory)
                if monitor_factory is not None else None)
    # a mitigator only ever acts on a monitor verdict (Algorithm 1)
    mitigators = (_MitigatorBatch(mitigator, B)
                  if mitigator is not None and monitors is not None else None)

    init_glucose = np.array([float(r.init_glucose) for r in runs])
    state = plant.reset(init_glucose, target)

    n_sub = max(1, int(round(dt / type(next(iter(patients.values()))).dt_integration)))
    dt_sub = dt / n_sub
    sub_times = _substep_times(n_steps, n_sub, dt_sub)
    run_meals = meals
    if controller_kind == "openaps":
        ra_timeline = _precompute_ivp_ra(run_meals, params, sub_times, dt_sub)
        ingestion = {}
    else:
        ra_timeline = None
        ingestion = _precompute_t1d_ingestion(run_meals, sub_times, dt_sub)

    columns = {name: np.zeros((n_steps, B), dtype=TRACE_COLUMN_DTYPES[name])
               for name in TRACE_ARRAY_FIELDS if name != "t"}
    units = np.zeros((n_steps, B))  # per-cycle net deliveries (U), time-major
    prev_iob = np.zeros(B)
    prev_cgm: Optional[np.ndarray] = None

    for step in range(n_steps):
        t = step * dt
        true_bg = plant.glucose(state)
        cgm = np.clip(plant.sensor_glucose(state), *CGM_RANGE)
        reading = faults.corrupt_reading(cgm, step)

        # IOB / activity at t: the per-delivery sums, in delivery order,
        # from the precomputed decay tables
        band = units[band_start[step]:step]
        iob = _band_sum(band, frac_tab[step])
        activity = _band_sum(band, act_tab[step]) if need_activity else None

        iob_ctrl = faults.corrupt_iob(iob, step)
        if need_activity:
            ctrl_rate, ctrl_bolus = controller.decide(step, dt, reading,
                                                      iob_ctrl, activity)
        else:
            ctrl_rate, ctrl_bolus = controller.decide(step, t, reading,
                                                      iob_ctrl)
        cmd_rate, cmd_bolus = faults.corrupt_command(ctrl_rate, ctrl_bolus,
                                                     step)
        action = _classify(cmd_rate, cmd_bolus, basal)
        iob_rate = np.zeros(B) if step == 0 else (iob - prev_iob) / dt

        # monitor context: fault-free sensor view + post-fault command,
        # assembled as a single-cycle context batch; mitigation rewrites
        # the alerted rows before the pump stage (Algorithm 1)
        final_rate, final_bolus = cmd_rate, cmd_bolus
        alerts = hazards = mitigated = None
        if monitors is not None:
            bg_rate = (np.zeros(B) if prev_cgm is None
                       else (cgm - prev_cgm) / dt)
            tick = ContextBatch.from_tick(t, cgm, bg_rate, iob, iob_rate,
                                          cmd_rate, cmd_bolus, action, dt)
            alerts, hazards = monitors.observe(tick)
            if mitigators is not None and alerts.any():
                final_rate, final_bolus = mitigators.correct(
                    alerts, hazards, tick, cmd_rate, cmd_bolus)
                mitigated = alerts & ((final_rate != cmd_rate)
                                      | (final_bolus != cmd_bolus))
        clamped = np.minimum(np.maximum(final_rate, 0.0), pump.max_basal)
        delivered_rate = np.floor(clamped / pump.increment + 1e-9) \
            * pump.increment
        delivered_bolus = np.minimum(np.maximum(final_bolus, 0.0),
                                     pump.max_bolus)
        units[step] = (delivered_rate - basal) * dt / 60.0 + delivered_bolus

        columns["true_bg"][step] = true_bg
        columns["cgm"][step] = cgm
        columns["reading"][step] = reading
        columns["ctrl_rate"][step] = ctrl_rate
        columns["ctrl_bolus"][step] = ctrl_bolus
        columns["cmd_rate"][step] = cmd_rate
        columns["cmd_bolus"][step] = cmd_bolus
        columns["action"][step] = action
        columns["iob"][step] = iob
        columns["iob_rate"][step] = iob_rate
        columns["final_rate"][step] = final_rate
        columns["final_bolus"][step] = final_bolus
        columns["delivered_rate"][step] = delivered_rate
        columns["delivered_bolus"][step] = delivered_bolus
        # alert / alert_hazard / mitigated stay all-zero when unmonitored
        if alerts is not None:
            columns["alert"][step] = alerts
            columns["alert_hazard"][step] = hazards
        if mitigated is not None:
            columns["mitigated"][step] = mitigated

        # advance the plant: n_sub RK4 substeps, bolus infused over the
        # first, meals ingested at the substeps whose window contains them
        pending = delivered_bolus * UU_PER_UNIT
        basal_uu = delivered_rate * UU_PER_UNIT / 60.0
        for i in range(n_sub):
            sub = step * n_sub + i
            for row, carbs_mg in ingestion.get(sub, ()):
                plant.ingest(state, row, carbs_mg)
            if i == 0:
                infusion = np.where(pending > 0.0,
                                    basal_uu + pending / dt_sub, basal_uu)
            else:
                infusion = basal_uu
            stages = None
            if ra_timeline is not None:
                stages = (ra_timeline[sub, 0], ra_timeline[sub, 1],
                          ra_timeline[sub, 2])
            state = plant.advance(state, dt_sub, infusion, stages)
        prev_iob = iob
        prev_cgm = cgm

    t_column = np.arange(n_steps, dtype=np.float64) * dt
    traces = []
    for b, run in enumerate(runs):
        arrays = {name: np.ascontiguousarray(col[:, b])
                  for name, col in columns.items()}
        traces.append(SimulationTrace(
            platform=platform, patient_id=trace_ids[run.patient_id],
            label=run.label, dt=dt, fault=run.fault, t=t_column.copy(),
            **arrays))
    return traces
