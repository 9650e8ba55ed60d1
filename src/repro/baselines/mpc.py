"""Model-predictive-control baseline monitor (Section IV-C2 of the paper).

Uses the Bergman & Sherwin population model (the paper's Eq. 6)::

    dBG/dt = -(GEZI + IEFF) * BG + EGP + RA(t)

to predict the blood glucose that would result from executing the pump's
commanded insulin on the current state, and raises an alarm when the
prediction leaves the guideline range [70, 180] mg/dL.

The monitor carries its own three-compartment insulin-effect estimate driven
by the *commanded* insulin (the same IVP insulin chain), parameterised with
population-average constants — deliberately not patient-specific, which is
exactly the weakness the paper attributes to this baseline.

The batched path (:meth:`MPCMonitor.observe_batch`) carries the insulin
chain as per-column state vectors and Euler-integrates the population
model for a whole replay batch at once; every arithmetic step transcribes
the scalar :meth:`MPCMonitor._integrate` expression order (the ``max``
clamps become ``np.where`` with the exact Python-``max`` tie semantics),
so the predictions — and therefore the verdicts — are element-wise
identical to the scalar loop.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..core.context import ContextVector
from ..core.monitor import (MonitorState, MonitorVerdict, NO_ALERT,
                            SafetyMonitor)
from ..hazards import HazardType
from ..patients.base import UU_PER_UNIT

__all__ = ["MPCMonitor"]

#: up to this many horizon rollouts (a live tick of the lock-step engine
#: or a small fleet) run through the scalar :meth:`MPCMonitor._integrate`
#: on Python floats: a rollout step costs numpy ~20 calls whatever the
#: width, which Python floats undercut below about 24 rollouts (measured
#: on the ci-scale MPC-mitigated campaign, 2-vCPU Xeon)
SCALAR_ROLLOUTS = 24


class MPCMonitor(SafetyMonitor):
    """One-or-more-step-ahead BG prediction monitor.

    Parameters
    ----------
    gezi, egp, si, ci, tau1, tau2, p2:
        Bergman/IVP population constants (defaults: Kanderian means).
    horizon_steps:
        How many 5-minute steps to roll the model forward under the
        commanded insulin before checking the range.
    bg_low, bg_high:
        Alarm range (the guideline normal range).
    """

    name = "MPC"

    def __init__(self, gezi: float = 2.2e-3, egp: float = 1.33,
                 si: float = 7.1e-4, ci: float = 2010.0, tau1: float = 49.0,
                 tau2: float = 47.0, p2: float = 0.0106,
                 horizon_steps: int = 6, bg_low: float = 70.0,
                 bg_high: float = 180.0, dt: float = 5.0):
        if horizon_steps < 1:
            raise ValueError(f"horizon_steps must be >= 1, got {horizon_steps}")
        if bg_low >= bg_high:
            raise ValueError("bg_low must be below bg_high")
        self.gezi = gezi
        self.egp = egp
        self.si = si
        self.ci = ci
        self.tau1 = tau1
        self.tau2 = tau2
        self.p2 = p2
        self.horizon_steps = horizon_steps
        self.bg_low = float(bg_low)
        self.bg_high = float(bg_high)
        self.dt = float(dt)
        # internal insulin-effect state (population model, commanded insulin)
        self._isc = 0.0
        self._ip = 0.0
        self._ieff: Optional[float] = None

    def reset(self) -> None:
        self._isc = 0.0
        self._ip = 0.0
        self._ieff = None

    def _integrate(self, isc, ip, ieff, bg, insulin_uu_min, minutes):
        """Euler-integrate the population model for *minutes* at 1-min steps."""
        steps = max(int(round(minutes)), 1)
        for _ in range(steps):
            d_isc = insulin_uu_min / (self.tau1 * self.ci) - isc / self.tau1
            d_ip = (isc - ip) / self.tau2
            d_ieff = -self.p2 * ieff + self.p2 * self.si * ip
            d_bg = -(self.gezi + max(ieff, 0.0)) * bg + self.egp
            isc += d_isc
            ip += d_ip
            ieff += d_ieff
            bg = max(bg + d_bg, 1.0)
        return isc, ip, ieff, bg

    def observe(self, ctx: ContextVector) -> MonitorVerdict:
        if self._ieff is None:
            # initialise the insulin chain at the steady state that holds the
            # first observed BG (the monitor's best population-level guess)
            ieff0 = max(self.egp / max(ctx.bg, 1.0) - self.gezi, 0.0)
            ip0 = ieff0 / self.si
            self._isc, self._ip, self._ieff = ip0, ip0, ieff0

        insulin_uu_min = (ctx.rate / 60.0 + ctx.bolus / self.dt) * UU_PER_UNIT
        # roll the model forward under the commanded insulin
        isc, ip, ieff, bg = self._isc, self._ip, self._ieff, ctx.bg
        isc, ip, ieff, bg = self._integrate(isc, ip, ieff, bg,
                                            insulin_uu_min,
                                            self.horizon_steps * self.dt)
        predicted = bg

        # advance the internal state by one cycle (what actually got commanded)
        self._isc, self._ip, self._ieff, _ = self._integrate(
            self._isc, self._ip, self._ieff, ctx.bg, insulin_uu_min, self.dt)

        if predicted < self.bg_low:
            return MonitorVerdict(alert=True, hazard=HazardType.H1,
                                  triggered=("mpc-low",))
        if predicted > self.bg_high:
            return MonitorVerdict(alert=True, hazard=HazardType.H2,
                                  triggered=("mpc-high",))
        return NO_ALERT

    def _integrate_columns(self, isc, ip, ieff, bg, insulin_uu_min, minutes):
        """:meth:`_integrate` over ``(B,)`` state vectors.

        Identical expression order; ``max(x, c)`` (Python: ``c`` only when
        ``c > x``) becomes ``np.where(x < c, c, x)``, which preserves the
        tie behaviour exactly.
        """
        steps = max(int(round(minutes)), 1)
        for _ in range(steps):
            d_isc = insulin_uu_min / (self.tau1 * self.ci) - isc / self.tau1
            d_ip = (isc - ip) / self.tau2
            d_ieff = -self.p2 * ieff + self.p2 * self.si * ip
            ieff_pos = np.where(ieff < 0.0, 0.0, ieff)
            d_bg = -(self.gezi + ieff_pos) * bg + self.egp
            isc = isc + d_isc
            ip = ip + d_ip
            ieff = ieff + d_ieff
            bg_next = bg + d_bg
            bg = np.where(bg_next < 1.0, 1.0, bg_next)
        return isc, ip, ieff, bg

    def init_state(self, n_cols: int) -> MonitorState:
        """The insulin chain per column, NaN until the column's first
        cycle (the scalar ``_ieff is None``)."""
        return {name: np.full(n_cols, np.nan)
                for name in ("isc", "ip", "ieff")}

    def observe_batch(self, batch, state: Optional[MonitorState] = None
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`observe` over a context batch, in two passes.

        Columns whose chain is still unset (NaN) start at the steady
        state of the batch's first BG reading, as the scalar
        :meth:`observe` does on its first cycle.  The one-cycle state
        advance is inherently sequential, so pass one walks the time axis
        recording per-cycle state snapshots and leaves the advanced chain
        in *state*; the expensive horizon *predictions* are independent
        across cycles, so pass two rolls them all forward at once over
        flattened ``(n_steps * B,)`` vectors — elementwise arithmetic,
        hence bit-identical to predicting cycle by cycle (a few rollouts
        run through the scalar :meth:`_integrate` itself).  The monitor's
        own scalar state is not touched.
        """
        n_steps, n_cols = batch.shape
        alerts = np.zeros((n_steps, n_cols), dtype=bool)
        hazards = np.zeros((n_steps, n_cols), dtype=int)
        if n_steps == 0:
            return alerts, hazards
        if state is None:
            state = self.init_state(n_cols)
        # steady-state initialisation at the first reading, for the
        # columns on their first cycle
        bg0 = batch.bg[0]
        bg0_floor = np.where(bg0 < 1.0, 1.0, bg0)
        ieff0 = self.egp / bg0_floor - self.gezi
        ieff0 = np.where(ieff0 < 0.0, 0.0, ieff0)
        ip0 = ieff0 / self.si
        fresh = np.isnan(state["ieff"])
        isc = np.where(fresh, ip0, state["isc"])
        ip = np.where(fresh, ip0, state["ip"])
        ieff = np.where(fresh, ieff0, state["ieff"])
        insulin_uu_min = (batch.rate / 60.0
                          + batch.bolus / self.dt) * UU_PER_UNIT
        # pass one: advance the insulin chain cycle by cycle, snapshotting
        # the pre-advance state the scalar observe() predicts from
        isc_at = np.empty((n_steps, n_cols))
        ip_at = np.empty((n_steps, n_cols))
        ieff_at = np.empty((n_steps, n_cols))
        for step in range(n_steps):
            isc_at[step], ip_at[step], ieff_at[step] = isc, ip, ieff
            isc, ip, ieff, _ = self._integrate_columns(
                isc, ip, ieff, batch.bg[step], insulin_uu_min[step], self.dt)
        state["isc"][:], state["ip"][:], state["ieff"][:] = isc, ip, ieff
        # pass two: all (cycle, column) horizon rollouts in one flat batch
        flat = (isc_at.ravel(), ip_at.ravel(), ieff_at.ravel(),
                np.ascontiguousarray(batch.bg).ravel(), insulin_uu_min.ravel())
        horizon = self.horizon_steps * self.dt
        if flat[0].size > SCALAR_ROLLOUTS:
            predicted = self._integrate_columns(*flat, horizon)[3]
        else:
            predicted = np.array([
                self._integrate(*rollout, horizon)[3]
                for rollout in zip(*(values.tolist() for values in flat))])
        predicted = predicted.reshape(n_steps, n_cols)
        low = predicted < self.bg_low
        high = predicted > self.bg_high
        alerts[:] = low | high
        h1, h2 = int(HazardType.H1), int(HazardType.H2)
        hazards[:] = np.where(low, h1, np.where(high, h2, 0))
        return alerts, hazards
