"""Continuous scenario space for rare-event hazard search.

The paper finds hazards by exhausting a *fixed* grid: 14 fault
configurations x 9 timing choices x 7 initial BGs (Section V-B).  This
module replaces the grid's axes with a continuous box so an adaptive
sampler can interpolate between — and extrapolate beyond — the grid
points:

- **fault families** generalise the campaign's 14 configurations: the same
  (kind, target) pairs, but with start/duration/magnitude drawn from
  continuous bounds instead of fixed values;
- **sensor-drift families** model persistent CGM calibration error (a
  Facchinetti-style bias) as long-window glucose-offset faults, so they
  run through the lock-step engine's ordinary fault masks;
- a **meal family** covers unannounced carbohydrate disturbances (Paoletti
  et al., robust control under meal uncertainties) with no fault at all —
  and every family additionally samples an optional background meal, so
  fault x meal interactions are reachable.

A sample is materialised into an executable
:class:`~repro.simulation.executor.SimRun` through
:meth:`ScenarioSpace.materialise`; fault parameters pass through
:meth:`repro.fi.faults.FaultSpec.from_continuous`, which rejects
degenerate timing/magnitude combinations loudly instead of silently
simulating a no-op.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from ..fi import CAMPAIGN_FAULTS, FaultKind, FaultSpec, FaultTarget, magnitude_bounds
from ..patients import Meal
from ..simulation import SimRun

__all__ = ["ScenarioFamily", "ScenarioSample", "ScenarioSpace",
           "default_families", "DIMENSION_NAMES"]

#: the continuous dimensions of one scenario sample, all in [0, 1]
DIMENSION_NAMES: Tuple[str, ...] = (
    "start", "duration", "magnitude", "init_bg", "meal_carbs", "meal_time")


@dataclass(frozen=True)
class ScenarioFamily:
    """One qualitative scenario shape (the categorical search dimension).

    Attributes
    ----------
    name:
        Stable identifier, recorded in run labels and search findings.
    kind, target:
        Fault configuration; ``None``/``None`` for pure-disturbance
        (meal-only) families.
    magnitude_range:
        Bounds the continuous magnitude dimension maps into (ignored for
        magnitude-free kinds).
    duration_range:
        Fault-duration bounds in control cycles.
    """

    name: str
    kind: Optional[FaultKind] = None
    target: Optional[FaultTarget] = None
    magnitude_range: Tuple[float, float] = (0.0, 0.0)
    duration_range: Tuple[int, int] = (6, 42)

    def __post_init__(self):
        if (self.kind is None) != (self.target is None):
            raise ValueError(
                f"family {self.name!r}: kind and target must be set together")
        lo, hi = self.duration_range
        if lo < 1 or hi < lo:
            raise ValueError(
                f"family {self.name!r}: invalid duration_range {self.duration_range}")
        if self.kind is not None:
            bounds = magnitude_bounds(self.kind, self.target)
            if bounds is not None:
                blo, bhi = bounds
                mlo, mhi = self.magnitude_range
                if not (blo <= mlo <= mhi <= bhi):
                    raise ValueError(
                        f"family {self.name!r}: magnitude_range "
                        f"{self.magnitude_range} outside the valid "
                        f"{self.kind.value}_{self.target.value} bounds "
                        f"[{blo}, {bhi}]")

    @property
    def has_fault(self) -> bool:
        return self.kind is not None


@dataclass(frozen=True)
class ScenarioSample:
    """One materialised scenario: executable spec + its search coordinates.

    ``params`` keeps the raw unit-cube coordinates the proposal drew, so
    the cross-entropy refit happens in the smooth sampled space, not in
    the discretised executable one.
    """

    family_index: int
    family: str
    params: Tuple[float, ...]
    fault: Optional[FaultSpec]
    init_glucose: float
    meals: Tuple[Meal, ...]

    @property
    def label(self) -> str:
        parts = [f"search/{self.family}"]
        if self.fault is not None:
            parts.append(f"@{self.fault.start_step}+{self.fault.duration_steps}")
            if self.fault.value:
                parts.append(f"x{self.fault.value:.3g}")
        parts.append(f"/bg{self.init_glucose:.0f}")
        for meal in self.meals:
            parts.append(f"/meal{meal.carbs:.0f}g@{meal.time:.0f}")
        return "".join(parts)

    def to_run(self, patient_id: str) -> SimRun:
        """The executor-plan cell for this sample."""
        return SimRun(patient_id=patient_id, init_glucose=self.init_glucose,
                      label=self.label, fault=self.fault, meals=self.meals)


def default_families(n_steps: int = 150) -> Tuple[ScenarioFamily, ...]:
    """The default family set: campaign faults + sensor drift + meals.

    The 14 grid configurations of :data:`repro.fi.campaign.CAMPAIGN_FAULTS`
    become continuous families (fixed grid magnitudes widen to bounds that
    bracket them); two drift families model slow CGM calibration bias
    (small magnitude, long window — at least four hours, up to the whole
    run); one meal family carries no fault at all.
    """
    #: continuous magnitude bounds per (kind, target), bracketing the
    #: grid's fixed choices (ADD/SUB glucose 100, ADD rate 3, SUB iob 3,
    #: SCALE rate 0.5)
    spans = {
        (FaultKind.ADD, FaultTarget.GLUCOSE): (20.0, 250.0),
        (FaultKind.SUB, FaultTarget.GLUCOSE): (20.0, 250.0),
        (FaultKind.ADD, FaultTarget.RATE): (0.5, 8.0),
        (FaultKind.SCALE, FaultTarget.RATE): (0.0, 4.0),
        (FaultKind.SUB, FaultTarget.IOB): (0.5, 8.0),
    }
    fault_duration = (6, min(42, n_steps))
    families = []
    for kind, target, _value in CAMPAIGN_FAULTS:
        families.append(ScenarioFamily(
            name=f"{kind.value}_{target.value}", kind=kind, target=target,
            magnitude_range=spans.get((kind, target), (0.0, 0.0)),
            duration_range=fault_duration))
    drift_window = (min(48, n_steps), n_steps)
    families.append(ScenarioFamily(
        name="drift_high", kind=FaultKind.ADD, target=FaultTarget.GLUCOSE,
        magnitude_range=(5.0, 40.0), duration_range=drift_window))
    families.append(ScenarioFamily(
        name="drift_low", kind=FaultKind.SUB, target=FaultTarget.GLUCOSE,
        magnitude_range=(5.0, 40.0), duration_range=drift_window))
    families.append(ScenarioFamily(name="meal"))
    return tuple(families)


@dataclass(frozen=True)
class ScenarioSpace:
    """The continuous search box: families x a unit cube of 6 dimensions.

    Attributes
    ----------
    families:
        The categorical axis (see :func:`default_families`).
    n_steps:
        Simulation horizon in control cycles; bounds fault timing.
    dt:
        Control period in minutes.
    init_bg_range:
        Initial-glucose bounds, defaulting to the paper's [80, 200] mg/dL.
    meal_carbs_range:
        Background-meal size bounds in grams; a sampled size below
        ``min_meal_carbs`` means *no* meal, so meal presence is itself
        searchable.
    meal_window_fraction:
        Meals land in the first this-fraction of the horizon, leaving room
        for their glucose excursion to unfold inside the trace.
    """

    families: Tuple[ScenarioFamily, ...] = ()
    n_steps: int = 150
    dt: float = 5.0
    init_bg_range: Tuple[float, float] = (80.0, 200.0)
    meal_carbs_range: Tuple[float, float] = (0.0, 120.0)
    min_meal_carbs: float = 5.0
    meal_window_fraction: float = 0.8
    # derived, not an init parameter
    n_dims: int = field(default=len(DIMENSION_NAMES), init=False)

    def __post_init__(self):
        families = self.families or default_families(self.n_steps)
        object.__setattr__(self, "families", tuple(families))
        if self.n_steps < 2:
            raise ValueError(f"n_steps must be >= 2, got {self.n_steps}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        lo, hi = self.init_bg_range
        if not 0 < lo <= hi:
            raise ValueError(f"invalid init_bg_range {self.init_bg_range}")
        lo, hi = self.meal_carbs_range
        if not 0 <= lo <= hi:
            raise ValueError(f"invalid meal_carbs_range {self.meal_carbs_range}")
        if not 0.0 < self.meal_window_fraction <= 1.0:
            raise ValueError(
                f"meal_window_fraction must be in (0, 1], got "
                f"{self.meal_window_fraction}")
        names = [f.name for f in self.families]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate family names: {sorted(names)}")

    @property
    def n_families(self) -> int:
        return len(self.families)

    @staticmethod
    def _lerp(u: float, lo: float, hi: float) -> float:
        return lo + float(u) * (hi - lo)

    def materialise(self, family_index: int,
                    u: Sequence[float]) -> ScenarioSample:
        """Map one categorical index + unit-cube point to a scenario.

        The mapping is total on valid inputs: every ``u`` in ``[0, 1]^6``
        yields an executable sample (fault construction goes through
        :meth:`~repro.fi.faults.FaultSpec.from_continuous`, so a mapping
        bug that produced a degenerate spec fails loudly here rather than
        polluting the search with silent no-ops).
        """
        if not 0 <= family_index < len(self.families):
            raise ValueError(
                f"family_index {family_index} out of range "
                f"[0, {len(self.families)})")
        u = np.asarray(u, dtype=float)
        if u.shape != (self.n_dims,):
            raise ValueError(
                f"expected {self.n_dims} unit-cube coordinates, got shape "
                f"{u.shape}")
        if np.any(u < 0.0) or np.any(u > 1.0):
            raise ValueError("unit-cube coordinates must lie in [0, 1]")
        family = self.families[family_index]

        fault = None
        if family.has_fault:
            # start leaves at least one active cycle inside the horizon
            start = u[0] * (self.n_steps - 1)
            dlo, dhi = family.duration_range
            duration = self._lerp(u[1], dlo, dhi)
            mlo, mhi = family.magnitude_range
            value = (self._lerp(u[2], mlo, mhi)
                     if magnitude_bounds(family.kind, family.target)
                     is not None else 0.0)
            fault = FaultSpec.from_continuous(
                family.kind, family.target, start, duration, value,
                horizon=self.n_steps)

        init_bg = self._lerp(u[3], *self.init_bg_range)
        carbs = self._lerp(u[4], *self.meal_carbs_range)
        meals: Tuple[Meal, ...] = ()
        if carbs >= self.min_meal_carbs:
            window = self.meal_window_fraction * self.n_steps * self.dt
            # anchor meals on whole minutes: sub-minute phases are invisible
            # at the 5-minute control cadence but would fragment labels
            meal_time = float(np.floor(u[5] * window))
            meals = (Meal(time=meal_time, carbs=round(float(carbs), 1)),)
        return ScenarioSample(family_index=family_index, family=family.name,
                              params=tuple(float(x) for x in u),
                              fault=fault, init_glucose=round(init_bg, 1),
                              meals=meals)
