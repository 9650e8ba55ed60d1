"""Batched (lock-step) kernels for the virtual patient models.

Every arithmetic step of the IVP (Kanderian) and UVA/Padova S2013 dynamics
lives here as a NumPy function over *column* state: the ODE state is a
``(n_states, B)`` matrix and every model parameter a ``(B,)`` vector, so one
kernel call advances ``B`` independent patients in lock step.  The
lock-step engine (:mod:`repro.simulation.vector`) calls them with whole
batch rows; there is only one implementation of the dynamics, and a row's
result never depends on the batch it shares.

Three numerical rules keep that exact:

- only size-invariant NumPy ufuncs are used (``+ - * /``, ``maximum``,
  ``sqrt``, ``log``, ``tanh``, ``power`` — per-element results do not depend
  on the batch width), never reductions across the batch axis;
- anything precomputed (parameter products, ``log(Gb)**r2``) is computed
  once per row in the column container, so every batch consumes the
  identical floating-point value;
- terms that do not depend on the state are computed once per RK4 step:
  the infusion term and the gastric-emptying inputs (``tanh`` is skipped
  outright while no row has had a meal), while derived parameter columns
  (``-(kd + ka1)``, ``f * kabs``, negated rate constants, ...) live in the
  container.  Each stage writes its derivative rows with ``out=`` into one
  ``(n_states, B)`` buffer; every rewrite keeps the operation order of the
  equations (``-a * g + c`` becomes ``c - a * g``, which IEEE 754 defines
  as the same addition), so no bit changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .base import GLUCOSE_FLOOR, PMOL_PER_UNIT, UU_PER_UNIT

__all__ = [
    "IVPColumns", "ivp_basal_rate", "ivp_init_state", "ivp_rk4_advance",
    "T1DColumns", "t1d_risk", "t1d_rk4_advance", "t1d_solve_basal_state",
    "t1d_solve_state_at",
    "t1d_solve_kp1", "t1d_init_state", "t1d_basal_rate",
    "T1D_STATE_NAMES",
]


def _column(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


def _rk4(stage, x: np.ndarray, dt: float) -> np.ndarray:
    """Classical RK4 over a ``(n_states, B)`` state, three buffers deep.

    ``stage(i, xs, out)`` writes the derivative at state *xs* into *out*
    for stage ``i`` (times ``t``, ``t + dt/2``, ``t + dt/2``, ``t + dt``).
    The result is ``x + dt/6 * (k1 + 2 k2 + 2 k3 + k4)`` summed in that
    order, bit for bit.
    """
    acc, k, xs = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    h2 = dt / 2.0
    stage(0, x, acc)
    np.add(x, np.multiply(acc, h2, out=xs), out=xs)
    stage(1, xs, k)
    np.add(x, np.multiply(k, h2, out=xs), out=xs)
    acc += np.multiply(k, 2.0, out=k)
    stage(2, xs, k)
    np.add(x, np.multiply(k, dt, out=xs), out=xs)
    acc += np.multiply(k, 2.0, out=k)
    stage(3, xs, k)
    acc += k
    return np.add(x, np.multiply(acc, dt / 6.0, out=acc), out=acc)


# ======================================================================
# IVP (Kanderian) model — state [I_sc, I_p, I_eff, G], shape (4, B)
# ======================================================================

@dataclass(frozen=True)
class IVPColumns:
    """Per-row IVP parameters as ``(B,)`` vectors (mixed patients batch)."""

    SI: np.ndarray
    GEZI: np.ndarray
    EGP: np.ndarray
    CI: np.ndarray
    tau1: np.ndarray
    tau2: np.ndarray
    p2: np.ndarray
    BW: np.ndarray
    # precomputed products
    tau1_CI: np.ndarray
    p2_SI: np.ndarray
    neg_p2: np.ndarray

    @classmethod
    def from_params(cls, params: Sequence) -> "IVPColumns":
        cols = {name: _column([getattr(p, name) for p in params])
                for name in ("SI", "GEZI", "EGP", "CI", "tau1", "tau2",
                             "p2", "BW")}
        return cls(tau1_CI=cols["tau1"] * cols["CI"],
                   p2_SI=cols["p2"] * cols["SI"], neg_p2=-cols["p2"], **cols)

    def __len__(self) -> int:
        return len(self.SI)


def ivp_basal_rate(cols: IVPColumns, glucose) -> np.ndarray:
    """Steady-state basal (U/h) holding *glucose*: ``CI*(EGP/G - GEZI)/SI``."""
    rate_uu_min = np.maximum(
        cols.CI * (cols.EGP / glucose - cols.GEZI) / cols.SI, 0.0)
    return rate_uu_min * 60.0 / UU_PER_UNIT


def ivp_init_state(cols: IVPColumns, init_glucose) -> np.ndarray:
    """Quasi-steady ``(4, B)`` state at *init_glucose* (insulin holds it)."""
    init_glucose = _column(init_glucose)
    basal_uu_min = ivp_basal_rate(cols, init_glucose) * UU_PER_UNIT / 60.0
    i_sc = basal_uu_min / cols.CI
    i_p = i_sc
    i_eff = cols.SI * i_p
    return np.stack([i_sc, i_p, i_eff,
                     init_glucose * np.ones_like(i_sc)])


def _ivp_stage(cols: IVPColumns, infusion, x: np.ndarray,
               ra: Optional[np.ndarray], out: np.ndarray) -> None:
    """Write the state derivative into *out*; *infusion* is the step's
    ``insulin / (tau1 * CI)`` term, *ra* the meal rate of appearance
    (mg/dL/min), None when no row has an active meal."""
    i_sc, i_p, i_eff, g = x
    d_isc, d_ip, d_ieff, d_g = out
    np.subtract(infusion, i_sc / cols.tau1, out=d_isc)
    np.divide(i_sc - i_p, cols.tau2, out=d_ip)
    np.add(cols.neg_p2 * i_eff, cols.p2_SI * i_p, out=d_ieff)
    # EGP - a*G is -(a)*G + EGP: IEEE defines both as one addition
    np.subtract(cols.EGP, (cols.GEZI + np.maximum(i_eff, 0.0)) * g, out=d_g)
    if ra is not None:
        d_g += ra


def ivp_rk4_advance(cols: IVPColumns, x: np.ndarray, dt: float,
                    insulin_uu_min,
                    ra_stages: Optional[Tuple[np.ndarray, np.ndarray,
                                              np.ndarray]] = None
                    ) -> np.ndarray:
    """One clamped RK4 step of the IVP system over a ``(4, B)`` state.

    ``ra_stages`` holds the meal rate of appearance at the three RK4 stage
    times ``t``, ``t + dt/2`` and ``t + dt`` (None when meal-free).
    """
    infusion = insulin_uu_min / cols.tau1_CI
    ra0, ra_mid, ra1 = ra_stages if ra_stages is not None else (None,) * 3
    ra = (ra0, ra_mid, ra_mid, ra1)
    xn = _rk4(lambda i, xs, out: _ivp_stage(cols, infusion, xs, ra[i], out),
              x, dt)
    # concentrations cannot go negative; glucose gets a numerical floor
    np.maximum(xn, 0.0, out=xn)
    np.maximum(xn[3], GLUCOSE_FLOOR, out=xn[3])
    return xn


# ======================================================================
# UVA/Padova S2013 model — 13-component state, shape (13, B)
# ======================================================================

#: state vector component order
T1D_STATE_NAMES = ("Gp", "Gt", "Ip", "Il", "I1", "Id", "X", "Isc1", "Isc2",
                   "Gs", "Qsto1", "Qsto2", "Qgut")
GP, GT, IP, IL, I1, ID, XA, ISC1, ISC2, GS, QSTO1, QSTO2, QGUT = range(13)

_T1D_FIELDS = ("BW", "VG", "k1", "k2", "kp1", "kp2", "kp3", "ki", "Fsnc",
               "Vm0", "Vmx", "Km0", "p2u", "ke1", "ke2", "VI", "m1", "m2",
               "m3", "m4", "kd", "ka1", "ka2", "kmax", "kmin", "kabs",
               "kgri", "f", "b", "d", "ksc", "r1", "r2", "Gb", "Gth")


@dataclass(frozen=True)
class T1DColumns:
    """Per-row S2013 parameters as ``(B,)`` vectors."""

    BW: np.ndarray
    VG: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    kp1: np.ndarray
    kp2: np.ndarray
    kp3: np.ndarray
    ki: np.ndarray
    Fsnc: np.ndarray
    Vm0: np.ndarray
    Vmx: np.ndarray
    Km0: np.ndarray
    p2u: np.ndarray
    ke1: np.ndarray
    ke2: np.ndarray
    VI: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    m3: np.ndarray
    m4: np.ndarray
    kd: np.ndarray
    ka1: np.ndarray
    ka2: np.ndarray
    kmax: np.ndarray
    kmin: np.ndarray
    kabs: np.ndarray
    kgri: np.ndarray
    f: np.ndarray
    b: np.ndarray
    d: np.ndarray
    ksc: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    Gb: np.ndarray
    Gth: np.ndarray
    #: precomputed ``log(Gb) ** r2``
    log_gb_pow: np.ndarray
    #: derived columns every derivative call would otherwise re-derive
    neg_kd_ka1: np.ndarray   # -(kd + ka1)
    neg_m1_m3: np.ndarray    # -(m1 + m3)
    neg_m2_m4: np.ndarray    # -(m2 + m4)
    half_krange: np.ndarray  # (kmax - kmin) / 2
    f_kabs: np.ndarray       # f * kabs
    neg_kgri: np.ndarray
    neg_ki: np.ndarray
    neg_p2u: np.ndarray
    neg_ksc: np.ndarray
    gp_floor: np.ndarray     # GLUCOSE_FLOOR * VG

    @classmethod
    def from_params(cls, params: Sequence) -> "T1DColumns":
        c = {name: _column([getattr(p, name) for p in params])
             for name in _T1D_FIELDS}
        return cls(log_gb_pow=np.log(c["Gb"]) ** c["r2"],
                   neg_kd_ka1=-(c["kd"] + c["ka1"]),
                   neg_m1_m3=-(c["m1"] + c["m3"]),
                   neg_m2_m4=-(c["m2"] + c["m4"]),
                   half_krange=(c["kmax"] - c["kmin"]) / 2.0,
                   f_kabs=c["f"] * c["kabs"], neg_kgri=-c["kgri"],
                   neg_ki=-c["ki"], neg_p2u=-c["p2u"], neg_ksc=-c["ksc"],
                   gp_floor=GLUCOSE_FLOOR * c["VG"], **c)

    def __len__(self) -> int:
        return len(self.BW)


def t1d_risk(cols: T1DColumns, glucose) -> np.ndarray:
    """S2013 hypoglycemia risk amplification factor (dimensionless)."""
    glucose = _column(glucose)
    g = np.maximum(glucose, cols.Gth)
    diff = np.log(g) ** cols.r2 - cols.log_gb_pow
    return np.where(glucose >= cols.Gb, 0.0, 10.0 * diff * diff)


def _t1d_gastric_inputs(cols: T1DColumns, last_meal_mg: np.ndarray):
    """The state-free part of ``kempt``: the pre-meal mask, ``[α; β]`` and
    ``[b·D; d·D]`` for the last meal's carbs ``D`` (1 pre-meal)."""
    d_mg = np.where(last_meal_mg > 0.0, last_meal_mg, 1.0)
    two_d = 2.0 * d_mg
    rates = 5.0 / np.stack([two_d * (1.0 - cols.b), two_d * cols.d])
    centres = np.stack([cols.b * d_mg, cols.d * d_mg])
    return last_meal_mg <= 0.0, rates, centres


def _t1d_kempt(cols: T1DColumns, gastric, qsto) -> np.ndarray:
    fasting, rates, centres = gastric
    tanhs = np.tanh(rates * (qsto - centres))
    kempt = cols.kmin + cols.half_krange * (tanhs[0] - tanhs[1] + 2.0)
    return np.where(fasting, cols.kmax, kempt)


def _t1d_step_inputs(cols: T1DColumns, insulin_uu_min, last_meal_mg,
                     basal_insulin):
    """The terms of one RK4 step that do not depend on the state: the
    infusion rate, the gastric-emptying inputs (None when no row has had a
    meal, so ``kempt`` is ``kmax`` everywhere) and the insulin reference."""
    iir = insulin_uu_min * (PMOL_PER_UNIT / UU_PER_UNIT) / cols.BW
    last_meal_mg = _column(last_meal_mg)
    gastric = (None if (last_meal_mg <= 0.0).all()
               else _t1d_gastric_inputs(cols, last_meal_mg))
    return iir, gastric, basal_insulin


def _t1d_stage(cols: T1DColumns, inputs, x: np.ndarray,
               out: np.ndarray) -> None:
    """Write the S2013 state derivative at *x* into *out* (``(13, B)``)."""
    gp, gt, ip, il, i1, i_d, xa, isc1, isc2, gs, qsto1, qsto2, qgut = x
    (d_gp, d_gt, d_ip, d_il, d_i1, d_id, d_xa, d_isc1, d_isc2, d_gs,
     d_qsto1, d_qsto2, d_qgut) = out
    iir, gastric, basal_insulin = inputs
    glucose = gp / cols.VG

    # gastro-intestinal tract
    kempt = (cols.kmax if gastric is None
             else _t1d_kempt(cols, gastric, qsto1 + qsto2))
    emptied = kempt * qsto2
    np.multiply(cols.neg_kgri, qsto1, out=d_qsto1)
    np.subtract(cols.kgri * qsto1, emptied, out=d_qsto2)
    np.subtract(emptied, cols.kabs * qgut, out=d_qgut)
    ra = cols.f_kabs * qgut / cols.BW

    # insulin kinetics (subcutaneous -> plasma/liver)
    np.add(cols.neg_kd_ka1 * isc1, iir, out=d_isc1)
    absorbed2 = cols.ka2 * isc2
    np.subtract(cols.kd * isc1, absorbed2, out=d_isc2)
    rai = cols.ka1 * isc1 + absorbed2
    np.add(cols.neg_m1_m3 * il, cols.m2 * ip, out=d_il)
    np.add(cols.neg_m2_m4 * ip + cols.m1 * il, rai, out=d_ip)
    insulin = ip / cols.VI  # pmol/L

    # delayed insulin signal and remote insulin action
    np.multiply(cols.neg_ki, i1 - insulin, out=d_i1)
    np.multiply(cols.neg_ki, i_d - i1, out=d_id)
    np.add(cols.neg_p2u * xa, cols.p2u * (insulin - basal_insulin), out=d_xa)

    # glucose kinetics
    egp = np.maximum(cols.kp1 - cols.kp2 * gp - cols.kp3 * i_d, 0.0)
    excretion = cols.ke1 * np.maximum(gp - cols.ke2, 0.0)
    vm = cols.Vm0 + cols.Vmx * xa * (1.0 + cols.r1 * t1d_risk(cols, glucose))
    uid = np.maximum(vm, 0.0) * gt / (cols.Km0 + gt)
    to_tissue = cols.k1 * gp
    to_plasma = cols.k2 * gt
    np.add(egp + ra - cols.Fsnc - excretion - to_tissue, to_plasma, out=d_gp)
    # k1 Gp - uid is -uid + k1 Gp: IEEE defines both as one addition
    np.subtract(to_tissue - uid, to_plasma, out=d_gt)

    # subcutaneous (CGM) glucose
    np.multiply(cols.neg_ksc, gs - glucose, out=d_gs)


def t1d_rk4_advance(cols: T1DColumns, x: np.ndarray, dt: float,
                    insulin_uu_min, last_meal_mg,
                    basal_insulin) -> np.ndarray:
    """One clamped RK4 step of the S2013 system over a ``(13, B)`` state."""
    inputs = _t1d_step_inputs(cols, insulin_uu_min, last_meal_mg,
                              basal_insulin)
    xn = _rk4(lambda i, xs, out: _t1d_stage(cols, inputs, xs, out), x, dt)
    # all states are physical quantities except the remote insulin action X,
    # a deviation from basal that is legitimately negative
    x_action = xn[XA].copy()
    np.maximum(xn, 0.0, out=xn)
    xn[XA] = x_action
    np.maximum(xn[GP], cols.gp_floor, out=xn[GP])
    np.maximum(xn[GS], GLUCOSE_FLOOR, out=xn[GS])
    return xn


def t1d_solve_basal_state(cols: T1DColumns, glucose
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form steady state ``(Gt, Ib, IIRb)`` at fasting *glucose*.

    Raises ``ValueError`` when any row's parameters cannot hold the
    requested glucose (negative basal insulin / infusion).
    """
    glucose = _column(glucose)
    gp = glucose * cols.VG
    a = cols.k2
    b = cols.k2 * cols.Km0 + cols.Vm0 - cols.k1 * gp
    c = -cols.k1 * gp * cols.Km0
    gt = (-b + np.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
    excretion = cols.ke1 * np.maximum(gp - cols.ke2, 0.0)
    egp_required = cols.Fsnc + excretion + cols.k1 * gp - cols.k2 * gt
    ib = (cols.kp1 - cols.kp2 * gp - egp_required) / cols.kp3
    if np.any(ib <= 0):
        bad = int(np.argmax(ib <= 0))
        raise ValueError(
            f"parameters cannot sustain fasting glucose "
            f"{float(np.broadcast_to(glucose, ib.shape)[bad])} mg/dL "
            f"(basal insulin would be {float(ib[bad]):.2f} pmol/L)")
    ip = ib * cols.VI
    il = cols.m2 * ip / (cols.m1 + cols.m3)
    iirb = (cols.m2 + cols.m4) * ip - cols.m1 * il
    if np.any(iirb <= 0):
        raise ValueError("steady state yields non-positive basal infusion")
    return gt, ib, iirb


def t1d_solve_state_at(cols: T1DColumns, glucose, ib_ref, risk_value,
                       iterations: int = 40
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed-point steady state ``(Gt, I, IIR)`` at *glucose* with the
    remote-action reference *ib_ref*.

    Unlike :func:`t1d_solve_basal_state` (the X = 0 anchor at the chronic
    basal), this solves the coupled (Gt, I) fixed point with
    X = I - ib_ref, so a run can start in quasi-steady state at any glucose
    while keeping the chronic insulin reference; I keeps a small positive
    floor (a high start may not be sustainable with positive insulin).
    A converged row keeps its accepted iterate while the others keep
    relaxing, so a row's result does not depend on its batch.
    """
    glucose = _column(glucose)
    ib_ref = _column(ib_ref)
    gp = glucose * cols.VG
    floor = 0.05 * ib_ref
    insulin = ib_ref * np.ones_like(gp)
    gt = gp * cols.k1 / cols.k2
    done = np.zeros(np.broadcast_shapes(gp.shape, insulin.shape), dtype=bool)
    for _ in range(iterations):
        if done.all():
            break
        x = insulin - ib_ref
        vm = np.maximum(cols.Vm0 + cols.Vmx * x * (1.0 + cols.r1 * risk_value),
                        0.05 * cols.Vm0)
        a = cols.k2
        b = cols.k2 * cols.Km0 + vm - cols.k1 * gp
        c = -cols.k1 * gp * cols.Km0
        gt_new = (-b + np.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
        excretion = cols.ke1 * np.maximum(gp - cols.ke2, 0.0)
        egp_required = cols.Fsnc + excretion + cols.k1 * gp - cols.k2 * gt_new
        insulin_new = np.maximum(
            (cols.kp1 - cols.kp2 * gp - egp_required) / cols.kp3, floor)
        converged = np.abs(insulin_new - insulin) < 1e-10
        gt = np.where(done, gt, gt_new)
        insulin = np.where(done, insulin,
                           np.where(converged, insulin_new,
                                    0.5 * insulin + 0.5 * insulin_new))
        done = done | converged
    ip = insulin * cols.VI
    il = cols.m2 * ip / (cols.m1 + cols.m3)
    iir = np.maximum((cols.m2 + cols.m4) * ip - cols.m1 * il, 0.0)
    return gt, insulin, iir


def t1d_solve_kp1(cols: T1DColumns, basal_insulin, glucose=None) -> np.ndarray:
    """``kp1`` that puts each row at steady state with *basal_insulin*."""
    glucose = cols.Gb if glucose is None else _column(glucose)
    gp = glucose * cols.VG
    a = cols.k2
    b = cols.k2 * cols.Km0 + cols.Vm0 - cols.k1 * gp
    c = -cols.k1 * gp * cols.Km0
    gt = (-b + np.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
    excretion = cols.ke1 * np.maximum(gp - cols.ke2, 0.0)
    egp_required = cols.Fsnc + excretion + cols.k1 * gp - cols.k2 * gt
    return egp_required + cols.kp2 * gp + cols.kp3 * basal_insulin


def t1d_basal_rate(cols: T1DColumns, glucose) -> np.ndarray:
    """Steady-state basal in U/h for a fasting *glucose* (closed form)."""
    _, _, iirb = t1d_solve_basal_state(cols, glucose)
    return iirb * cols.BW * 60.0 / PMOL_PER_UNIT


def t1d_init_state(cols: T1DColumns, init_glucose, target
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Quasi-steady ``(13, B)`` state at *init_glucose* with the chronic
    insulin reference anchored at *target*; returns ``(state, ib_ref)``."""
    init_glucose = _column(init_glucose)
    _, ib_ref, _ = t1d_solve_basal_state(cols, target)
    gt, insulin, iirb = t1d_solve_state_at(cols, init_glucose, ib_ref,
                                           t1d_risk(cols, init_glucose))
    gp = init_glucose * cols.VG
    ip = insulin * cols.VI
    il = cols.m2 * ip / (cols.m1 + cols.m3)
    isc1 = iirb / (cols.kd + cols.ka1)
    isc2 = cols.kd * isc1 / cols.ka2
    shape = np.broadcast_shapes(gp.shape, ip.shape)
    x = np.zeros((13,) + shape)
    x[GP] = gp
    x[GT] = gt
    x[IP] = ip
    x[IL] = il
    x[I1] = insulin
    x[ID] = insulin
    x[XA] = insulin - ib_ref
    x[ISC1] = isc1
    x[ISC2] = isc2
    x[GS] = init_glucose
    return x, ib_ref * np.ones(shape)
