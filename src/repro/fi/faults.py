"""Fault and attack models (Table II of the paper).

Each :class:`FaultSpec` describes one transient fault: what it corrupts (the
controller's glucose input, its commanded insulin rate, or a commanded
bolus), how (the Table II manipulation types), when (activation step) and for
how long.  The paper's threat model assumes errors are transient and occur
once per simulation, so a spec is a single contiguous window.

Manipulation types and the scenarios they simulate:

==========  =====================================================
truncate    output forced to zero (availability attack)
hold        value frozen at its pre-fault level (DoS attack)
max / min   saturation at the variable's allowed extreme
            (integrity attack, e.g. ``maximize_rate``)
add / sub   constant offset (memory fault / integrity attack)
scale       multiplicative corruption; factor 0.5 reproduces the
            paper's bit-flip-style ``dec*`` faults (Fig. 8)
==========  =====================================================
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = ["FaultKind", "FaultTarget", "FaultSpec", "VARIABLE_RANGES",
           "MAX_SCALE_FACTOR", "magnitude_bounds"]

#: largest multiplicative corruption a SCALE fault may apply — factors past
#: this saturate at the variable range anyway, so larger samples are noise
MAX_SCALE_FACTOR = 10.0


class FaultKind(enum.Enum):
    TRUNCATE = "truncate"
    HOLD = "hold"
    MAX = "max"
    MIN = "min"
    ADD = "add"
    SUB = "sub"
    SCALE = "scale"


class FaultTarget(enum.Enum):
    """Controller variable the fault corrupts.

    The paper's threat model covers "errors in inputs, outputs, and the
    internal state variables of the APS control software" (Section IV-C1):
    ``GLUCOSE`` is the input, ``RATE``/``BOLUS`` the outputs, and ``IOB`` the
    controller's internal insulin-on-board estimate — corrupting it defeats
    the controller's own compensation logic (e.g. a zeroed IOB makes it keep
    stacking insulin).
    """

    GLUCOSE = "glucose"   # controller input (CGM value as seen by software)
    RATE = "rate"         # controller output basal rate
    BOLUS = "bolus"       # controller output bolus
    IOB = "iob"           # controller-internal IOB estimate (net units)


#: acceptable ranges per target, used by MAX/MIN and for clamping the result
#: of ADD/SUB/SCALE — the paper's FI perturbs "within the acceptable range".
#: IOB is in the oref0 net convention, hence the negative floor.
VARIABLE_RANGES: Dict[FaultTarget, Tuple[float, float]] = {
    FaultTarget.GLUCOSE: (40.0, 400.0),
    FaultTarget.RATE: (0.0, 10.0),
    FaultTarget.BOLUS: (0.0, 10.0),
    FaultTarget.IOB: (-2.0, 15.0),
}


def magnitude_bounds(kind: FaultKind,
                     target: FaultTarget) -> Optional[Tuple[float, float]]:
    """Valid magnitude interval for a (kind, target) fault configuration.

    ``None`` means the kind takes no magnitude (TRUNCATE/HOLD/MAX/MIN).
    ``ADD``/``SUB`` offsets must be strictly positive (0 is a silent no-op)
    and no larger than the target's full acceptable span — anything bigger
    clamps to the same saturated value, so allowing it would only blur the
    search space.  ``SCALE`` factors live in ``[0, MAX_SCALE_FACTOR]``.
    """
    if kind in (FaultKind.TRUNCATE, FaultKind.HOLD, FaultKind.MAX,
                FaultKind.MIN):
        return None
    if kind is FaultKind.SCALE:
        return (0.0, MAX_SCALE_FACTOR)
    lo, hi = VARIABLE_RANGES[target]
    span = hi - lo
    # smallest meaningful offset: far below any clinically visible error,
    # but strictly positive so a sampled 0.0 is rejected as a no-op
    return (1e-6, span)


@dataclass(frozen=True)
class FaultSpec:
    """One transient fault scenario.

    Attributes
    ----------
    kind:
        The manipulation type.
    target:
        Which interface variable is corrupted.
    start_step:
        Control cycle at which the fault activates.
    duration_steps:
        Number of consecutive cycles the fault stays active.
    value:
        Magnitude for ``ADD``/``SUB`` (same unit as the target) or factor
        for ``SCALE``; ignored by the other kinds.
    """

    kind: FaultKind
    target: FaultTarget
    start_step: int
    duration_steps: int
    value: float = 0.0

    def __post_init__(self):
        if self.start_step < 0:
            raise ValueError(f"start_step must be >= 0, got {self.start_step}")
        if self.duration_steps <= 0:
            raise ValueError(
                f"duration_steps must be positive, got {self.duration_steps}")
        if not math.isfinite(self.value):
            raise ValueError(f"fault value must be finite, got {self.value}")
        if self.kind is FaultKind.SCALE and self.value < 0:
            raise ValueError(f"scale factor must be >= 0, got {self.value}")

    @classmethod
    def from_continuous(cls, kind: FaultKind, target: FaultTarget,
                        start_step: float, duration_steps: float,
                        value: float = 0.0, *, horizon: int) -> "FaultSpec":
        """Build a validated spec from *continuous* scenario parameters.

        Scenario-search proposals (:mod:`repro.search`) sample fault timing
        and magnitude as real numbers; this constructor is the single place
        those samples become discrete specs.  It rejects — loudly, with
        :class:`ValueError` — every degenerate combination that the plain
        constructor cannot see because it lacks the simulation horizon:

        - non-finite or negative timing, zero/negative duration (a fault
          that never activates would silently score as a safe scenario);
        - ``start_step`` at or past *horizon* (the fault window would lie
          entirely outside the simulated trace — a silent no-op);
        - magnitudes outside :func:`magnitude_bounds` for the kind/target
          (an ``ADD`` of 0 or of more than the variable's full range is a
          no-op or pure saturation, either of which corrupts the search
          objective silently).

        Timing is floored to whole control cycles after validation, so any
        sample inside the continuous box maps to exactly one valid spec.
        """
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1 step, got {horizon}")
        if not (math.isfinite(start_step) and math.isfinite(duration_steps)):
            raise ValueError(
                f"fault timing must be finite, got start {start_step}, "
                f"duration {duration_steps}")
        if start_step < 0:
            raise ValueError(f"start_step must be >= 0, got {start_step}")
        if duration_steps < 1:
            raise ValueError(
                f"duration_steps must be >= 1 cycle, got {duration_steps} "
                "(a zero-length fault would simulate as fault-free)")
        start = int(math.floor(start_step))
        duration = int(math.floor(duration_steps))
        if start >= horizon:
            raise ValueError(
                f"start_step {start} is outside the simulation horizon "
                f"({horizon} steps) — the fault would never activate")
        bounds = magnitude_bounds(kind, target)
        if bounds is None:
            if value != 0.0:
                raise ValueError(
                    f"{kind.value} faults take no magnitude, got {value}")
        else:
            lo, hi = bounds
            if not math.isfinite(value) or not lo <= value <= hi:
                raise ValueError(
                    f"{kind.value}_{target.value} magnitude {value} is "
                    f"outside the valid range [{lo}, {hi}]")
        return cls(kind=kind, target=target, start_step=start,
                   duration_steps=duration, value=value)

    @property
    def end_step(self) -> int:
        """First step after the fault window."""
        return self.start_step + self.duration_steps

    @property
    def label(self) -> str:
        """Short human-readable id, Fig. 8 style (e.g. ``max_rate``)."""
        base = self.kind.value
        if self.kind is FaultKind.SCALE and self.value < 1.0:
            base = "dec"
        return f"{base}_{self.target.value}"
