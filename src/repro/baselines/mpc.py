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

Each cycle rolls the model forward ``horizon_steps * dt`` minutes at
1-minute Euler steps under the cycle's insulin, and advances the chain by
``dt`` minutes under the same insulin.  The chain never reads BG, so that
advance is exactly the first ``dt`` steps of the cycle's own rollout (the
*prefix identity*; ``dt`` is a whole number of minutes and the horizon a
whole number of cycles): one integration per column per cycle yields both.
The arithmetic takes two call shapes, bit-identical to each other:

* a batch of at most :data:`SCALAR_ROLLOUTS` column-cycles (a live tick
  of the lock-step engine or of ``MonitorService``, a single-stream
  :meth:`~repro.core.monitor.SafetyMonitor.observe`) runs the one
  Python-float kernel, :meth:`MPCMonitor._integrate`, cycle by cycle;
* wider batches (offline replay) run in two numpy passes: pass one
  advances only the insulin chain cycle by cycle, recording the chain
  each cycle predicts from; pass two rolls every ``(cycle, column)``
  prediction forward at once over flattened vectors.  Both transcribe the
  kernel's expression order (the clamps become ``np.where`` with the
  exact tie semantics of Python's ``max``).
"""

from __future__ import annotations

import numbers
from typing import Optional, Tuple

import numpy as np

from ..core.monitor import MonitorState, SafetyMonitor
from ..hazards import HazardType
from ..patients.base import UU_PER_UNIT

__all__ = ["MPCMonitor"]

#: batches of up to this many column-cycles run the Python-float kernel
#: cycle by cycle; wider ones take the two numpy passes.  A numpy rollout
#: step costs 19 calls whatever the width: a single-cycle batch cost
#: ~2.8–3.0 ms at 16–96 columns over the 24-cycle horizon the experiments
#: use, against ~40–46 µs per column for the kernel (rollout and chain
#: advance together), and ~0.8 ms against ~15–17 µs over the default
#: 6-cycle horizon.  They broke even at ~72 and ~56 columns (medians of
#: 15 interleaved runs, 2-vCPU Xeon).  Multi-cycle batches favour the
#: kernel further, since pass one adds numpy calls per cycle
SCALAR_ROLLOUTS = 64

#: a NaN chain would read as "column not started" (NaN state), so a
#: non-finite input is refused rather than silently restarting a column
_NON_FINITE = "MPCMonitor needs finite bg, rate and bolus inputs"


class MPCMonitor(SafetyMonitor):
    """One-or-more-step-ahead BG prediction monitor.

    Parameters
    ----------
    gezi, egp, si, ci, tau1, tau2, p2:
        Bergman/IVP population constants (defaults: Kanderian means).
    horizon_steps:
        How many control cycles to roll the model forward under the
        commanded insulin before checking the range (an integer >= 1).
    bg_low, bg_high:
        Alarm range (the guideline normal range).
    dt:
        The control period, a whole number of minutes >= 1 (the model
        integrates at 1-minute steps).
    """

    name = "MPC"

    def __init__(self, gezi: float = 2.2e-3, egp: float = 1.33,
                 si: float = 7.1e-4, ci: float = 2010.0, tau1: float = 49.0,
                 tau2: float = 47.0, p2: float = 0.0106,
                 horizon_steps: int = 6, bg_low: float = 70.0,
                 bg_high: float = 180.0, dt: float = 5.0):
        if (not isinstance(horizon_steps, numbers.Integral)
                or isinstance(horizon_steps, bool) or horizon_steps < 1):
            raise ValueError("horizon_steps must be an integer >= 1, "
                             f"got {horizon_steps!r}")
        if (not isinstance(dt, numbers.Real) or isinstance(dt, bool)
                or not float(dt).is_integer() or dt < 1):
            raise ValueError(
                f"dt must be a whole number of minutes >= 1, got {dt!r}")
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

    def _steps(self) -> Tuple[int, int]:
        """The 1-minute Euler steps of one cycle's chain advance and of
        its prediction horizon."""
        return (max(int(round(self.dt)), 1),
                max(int(round(self.horizon_steps * self.dt)), 1))

    def _integrate(self, isc, ip, ieff, bg, insulin_uu_min):
        """Roll one column forward over the horizon on Python floats.

        Returns the predicted BG and the insulin chain ``(isc, ip, ieff)``
        after the first ``dt`` minutes, the cycle's own chain advance.
        Each step updates BG, then ``ieff``, ``ip`` and ``isc``, each from
        the step's old values; ``c if x < c else x`` is Python's
        ``max(x, c)``, ties, ``-0.0`` and NaN included.
        """
        tau1, tau2, gezi, egp = self.tau1, self.tau2, self.gezi, self.egp
        infusion = insulin_uu_min / (tau1 * self.ci)
        neg_p2 = -self.p2
        p2_si = self.p2 * self.si
        advance, horizon = self._steps()
        chain = ()
        for steps in (advance, horizon - advance):
            for _ in range(steps):
                bg += -(gezi + (0.0 if ieff < 0.0 else ieff)) * bg + egp
                if bg < 1.0:
                    bg = 1.0
                ieff += neg_p2 * ieff + p2_si * ip
                ip += (isc - ip) / tau2
                isc += infusion - isc / tau1
            chain = chain or (isc, ip, ieff)
        return bg, chain

    def _advance_chain(self, isc, ip, ieff, infusion, steps):
        """The kernel's insulin-chain update over column vectors, for
        *steps* minutes at the hoisted ``insulin / (tau1 * ci)``."""
        tau1, tau2 = self.tau1, self.tau2
        neg_p2 = -self.p2
        p2_si = self.p2 * self.si
        for _ in range(steps):
            isc, ip, ieff = (isc + (infusion - isc / tau1),
                             ip + (isc - ip) / tau2,
                             ieff + (neg_p2 * ieff + p2_si * ip))
        return isc, ip, ieff

    def _integrate_columns(self, isc, ip, ieff, bg, infusion, steps):
        """The kernel's BG prediction over column vectors for *steps*
        minutes; ``max(x, c)`` becomes ``np.where(x < c, c, x)``."""
        gezi, egp = self.gezi, self.egp
        for _ in range(steps):
            ieff_pos = np.where(ieff < 0.0, 0.0, ieff)
            bg_next = bg + (-(gezi + ieff_pos) * bg + egp)
            bg = np.where(bg_next < 1.0, 1.0, bg_next)
            isc, ip, ieff = self._advance_chain(isc, ip, ieff, infusion, 1)
        return bg

    def init_state(self, n_cols: int) -> MonitorState:
        """The insulin chain per column (population model, driven by the
        commanded insulin), NaN until the column's first cycle."""
        return {name: np.full(n_cols, np.nan)
                for name in ("isc", "ip", "ieff")}

    def observe_batch(self, batch, state: Optional[MonitorState] = None
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """Predict every cycle's BG, leaving the advanced chain in
        *state*.

        Columns whose chain is still unset (NaN) start at the steady
        state that holds the batch's first BG reading (the monitor's
        best population-level guess); a batch without such columns
        skips that initialisation.  Up to
        :data:`SCALAR_ROLLOUTS` column-cycles run :meth:`_integrate`
        cycle by cycle.  Wider batches take two passes: the chain advance
        is inherently sequential, so pass one walks the time axis
        advancing the chain alone and recording the chain each cycle
        predicts from; the horizon *predictions* are independent across
        cycles, so pass two rolls them all forward at once over flattened
        ``(n_steps * B,)`` vectors — elementwise arithmetic, hence
        bit-identical to predicting cycle by cycle.
        """
        n_steps, n_cols = batch.shape
        alerts = np.zeros((n_steps, n_cols), dtype=bool)
        hazards = np.zeros((n_steps, n_cols), dtype=int)
        if n_steps == 0:
            return alerts, hazards
        if not (np.isfinite(batch.bg).all() and np.isfinite(batch.rate).all()
                and np.isfinite(batch.bolus).all()):
            raise ValueError(_NON_FINITE)
        if state is None:
            state = self.init_state(n_cols)
        isc, ip, ieff = state["isc"], state["ip"], state["ieff"]
        fresh = np.isnan(ieff)
        if fresh.any():
            # steady-state initialisation at the first reading, for the
            # columns on their first cycle
            bg0 = batch.bg[0]
            bg0_floor = np.where(bg0 < 1.0, 1.0, bg0)
            ieff0 = self.egp / bg0_floor - self.gezi
            ieff0 = np.where(ieff0 < 0.0, 0.0, ieff0)
            ip0 = ieff0 / self.si
            isc = np.where(fresh, ip0, isc)
            ip = np.where(fresh, ip0, ip)
            ieff = np.where(fresh, ieff0, ieff)
        insulin_uu_min = (batch.rate / 60.0
                          + batch.bolus / self.dt) * UU_PER_UNIT
        if n_steps * n_cols <= SCALAR_ROLLOUTS:
            isc, ip, ieff = isc.tolist(), ip.tolist(), ieff.tolist()
            predicted = np.empty((n_steps, n_cols))
            for step, (bgs, insulins) in enumerate(zip(
                    batch.bg.tolist(), insulin_uu_min.tolist())):
                for col in range(n_cols):
                    (predicted[step, col],
                     (isc[col], ip[col], ieff[col])) = self._integrate(
                        isc[col], ip[col], ieff[col], bgs[col], insulins[col])
        else:
            advance, horizon = self._steps()
            infusion = insulin_uu_min / (self.tau1 * self.ci)
            # pass one: the chain alone, snapshotting the pre-advance
            # chain each cycle predicts from
            isc_at = np.empty((n_steps, n_cols))
            ip_at = np.empty((n_steps, n_cols))
            ieff_at = np.empty((n_steps, n_cols))
            for step in range(n_steps):
                isc_at[step], ip_at[step], ieff_at[step] = isc, ip, ieff
                isc, ip, ieff = self._advance_chain(
                    isc, ip, ieff, infusion[step], advance)
            # pass two: all (cycle, column) horizon rollouts in one batch
            predicted = self._integrate_columns(
                isc_at.ravel(), ip_at.ravel(), ieff_at.ravel(),
                np.ascontiguousarray(batch.bg).ravel(), infusion.ravel(),
                horizon).reshape(n_steps, n_cols)
        state["isc"][:], state["ip"][:], state["ieff"][:] = isc, ip, ieff
        low = predicted < self.bg_low
        high = predicted > self.bg_high
        alerts[:] = low | high
        h1, h2 = int(HazardType.H1), int(HazardType.H2)
        hazards[:] = np.where(low, h1, np.where(high, h2, 0))
        return alerts, hazards
