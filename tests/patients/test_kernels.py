"""Bit-parity of the batched patient kernels.

The lock-step engine's exactness rests on two identities, checked here
byte for byte over seeded draws for both models:

- column ``b`` of a 7-wide ``*_rk4_advance`` equals the ``B = 1`` call;
- the per-stage kernel function equals the model's equations written out
  in plain Python floats (below; the transcendentals go through numpy).

Each S2013 draw mixes fed and fasting rows in one batch, a negative remote
insulin action ``X``, glucose below ``Gth`` and below ``Gb``, and empty and
filled guts; every fourth batch is all-fasting, so the step skips the
gastric-emptying ``tanh`` terms at width 7 too.
"""

import numpy as np
import pytest

from repro.patients import GLUCOSYM_COHORT, T1DS2013_COHORT
from repro.patients.base import PMOL_PER_UNIT, UU_PER_UNIT
from repro.patients.ivp import meal_ra
from repro.patients.kernels import (GP, GS, GT, I1, ID, IL, IP, ISC1, ISC2,
                                    QGUT, QSTO1, QSTO2, XA, IVPColumns,
                                    T1DColumns, _ivp_stage, _t1d_stage,
                                    _t1d_step_inputs, ivp_init_state,
                                    ivp_rk4_advance, t1d_init_state,
                                    t1d_rk4_advance)

WIDTH = 7
N_DRAWS = 300
DTS = (1.0, 0.5, 2.5)


def assert_bytes_equal(actual, expected, what):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype, what
    assert actual.shape == expected.shape, what
    assert actual.tobytes() == expected.tobytes(), what


def ivp_equations(p, x, insulin, ra):
    """The IVP state derivative in plain floats (module docstring of
    :mod:`repro.patients.ivp`)."""
    i_sc, i_p, i_eff, g = (float(v) for v in x)
    d_g = -(p.GEZI + max(i_eff, 0.0)) * g + p.EGP
    return (insulin / (p.tau1 * p.CI) - i_sc / p.tau1,
            (i_sc - i_p) / p.tau2,
            -p.p2 * i_eff + p.p2 * p.SI * i_p,
            d_g if ra is None else d_g + ra)


def t1d_equations(p, x, insulin, last_meal_mg, basal_insulin):
    """The S2013 state derivative in plain floats (Dalla Man et al. 2014;
    the risk's power runs through a length-1 array, as numpy's *scalar*
    ``**`` rounds differently from the array ufunc)."""
    x = [float(v) for v in x]
    glucose = x[GP] / p.VG
    qsto = x[QSTO1] + x[QSTO2]
    if last_meal_mg <= 0.0:
        kempt = p.kmax
    else:
        alpha = 5.0 / (2.0 * last_meal_mg * (1.0 - p.b))
        beta = 5.0 / (2.0 * last_meal_mg * p.d)
        kempt = p.kmin + (p.kmax - p.kmin) / 2.0 * (
            float(np.tanh(alpha * (qsto - p.b * last_meal_mg)))
            - float(np.tanh(beta * (qsto - p.d * last_meal_mg))) + 2.0)
    risk = 0.0
    if glucose < p.Gb:
        g = glucose if glucose > p.Gth else p.Gth
        diff = float(np.power(np.array([np.log(g)]), p.r2)[0]) \
            - float(np.log(p.Gb) ** p.r2)
        risk = 10.0 * diff * diff
    iir = insulin * (PMOL_PER_UNIT / UU_PER_UNIT) / p.BW
    plasma = x[IP] / p.VI
    egp = p.kp1 - p.kp2 * x[GP] - p.kp3 * x[ID]
    over = x[GP] - p.ke2
    vm = p.Vm0 + p.Vmx * x[XA] * (1.0 + p.r1 * risk)
    uid = (vm if vm > 0.0 else 0.0) * x[GT] / (p.Km0 + x[GT])
    d = [0.0] * 13
    d[GP] = ((egp if egp > 0.0 else 0.0) + p.f * p.kabs * x[QGUT] / p.BW
             - p.Fsnc - p.ke1 * (over if over > 0.0 else 0.0)
             - p.k1 * x[GP] + p.k2 * x[GT])
    d[GT] = -uid + p.k1 * x[GP] - p.k2 * x[GT]
    d[IP] = (-(p.m2 + p.m4) * x[IP] + p.m1 * x[IL]
             + (p.ka1 * x[ISC1] + p.ka2 * x[ISC2]))
    d[IL] = -(p.m1 + p.m3) * x[IL] + p.m2 * x[IP]
    d[I1] = -p.ki * (x[I1] - plasma)
    d[ID] = -p.ki * (x[ID] - x[I1])
    d[XA] = -p.p2u * x[XA] + p.p2u * (plasma - basal_insulin)
    d[ISC1] = -(p.kd + p.ka1) * x[ISC1] + iir
    d[ISC2] = p.kd * x[ISC1] - p.ka2 * x[ISC2]
    d[GS] = -p.ksc * (x[GS] - glucose)
    d[QSTO1] = -p.kgri * x[QSTO1]
    d[QSTO2] = p.kgri * x[QSTO1] - kempt * x[QSTO2]
    d[QGUT] = kempt * x[QSTO2] - p.kabs * x[QGUT]
    return d


def _t1d_draw(seed):
    """A 7-wide S2013 batch and the parameters of each column."""
    rng = np.random.default_rng(seed)
    ids = rng.choice(sorted(T1DS2013_COHORT), WIDTH)
    patients = [T1DS2013_COHORT[pid] for pid in ids]
    cols = T1DColumns.from_params(patients)
    glucose = rng.uniform(40.0, 400.0, WIDTH)
    # the first columns pin the risk branches: below Gth, between Gth and
    # Gb, and at or above Gb
    glucose[:3] = (rng.uniform(20.0, 59.0), rng.uniform(61.0, 119.0),
                   rng.uniform(120.0, 400.0))
    x, basal_insulin = t1d_init_state(cols, glucose, np.full(WIDTH, 120.0))
    x *= rng.uniform(0.5, 1.5, x.shape)
    x[GP] = glucose * cols.VG
    x[XA] = rng.normal(0.0, 20.0, WIDTH)
    x[XA, 0] = -abs(x[XA, 0]) - 1.0
    filled = rng.random(WIDTH) < 0.5
    filled[:2] = (True, False)
    x[QSTO1:QGUT + 1] = np.where(filled, rng.uniform(0.0, 8e4, (3, WIDTH)),
                                 0.0)
    fed = rng.random(WIDTH) < 0.5
    fed[:2] = (True, False)
    if seed % 4 == 0:
        fed[:] = False
    last_meal_mg = np.where(fed, rng.uniform(5e3, 1e5, WIDTH), 0.0)
    insulin = rng.uniform(0.0, 3e4, WIDTH) * (rng.random(WIDTH) < 0.8)
    return (patients, cols, x, insulin, last_meal_mg, basal_insulin,
            DTS[seed % len(DTS)])


def _ivp_draw(seed):
    """A 7-wide IVP batch, half its rows mid-meal, and the parameters of
    each column."""
    rng = np.random.default_rng(seed)
    ids = rng.choice(sorted(GLUCOSYM_COHORT), WIDTH)
    patients = [GLUCOSYM_COHORT[pid] for pid in ids]
    cols = IVPColumns.from_params(patients)
    x = ivp_init_state(cols, rng.uniform(40.0, 400.0, WIDTH))
    x *= rng.uniform(0.5, 1.5, x.shape)
    x[2, :2] = (-rng.uniform(1e-4, 1e-2), 0.0)  # I_eff on the clamp's edge
    x[3, 2] = rng.uniform(10.0, 15.0)             # glucose near the floor
    fed = rng.random(WIDTH) < 0.5
    fed[:2] = (True, False)
    if seed % 4 == 0:
        fed[:] = False
    dt = DTS[seed % len(DTS)]
    ra = np.zeros((3, WIDTH))
    for b, params in enumerate(patients):
        if fed[b]:
            meals = [(rng.uniform(0.0, 200.0), rng.uniform(5e3, 1e5))
                     for _ in range(rng.integers(1, 3))]
            ra[:, b] = [sum(meal_ra(ago + s, carbs, params.glucose_volume_dl)
                            for ago, carbs in meals)
                        for s in (0.0, dt / 2.0, dt)]
    insulin = rng.uniform(0.0, 3e4, WIDTH) * (rng.random(WIDTH) < 0.8)
    return patients, cols, x, insulin, fed, ra, dt


@pytest.mark.parametrize("block", range(0, N_DRAWS, 100))
def test_t1d_rk4_width_and_scalar_parity(block):
    for seed in range(block, block + 100):
        (patients, cols, x, insulin, last_meal_mg, basal_insulin,
         dt) = _t1d_draw(seed)
        wide = t1d_rk4_advance(cols, x, dt, insulin, last_meal_mg,
                               basal_insulin)
        for b, params in enumerate(patients):
            one = t1d_rk4_advance(T1DColumns.from_params([params]),
                                  x[:, b:b + 1], dt, insulin[b:b + 1],
                                  last_meal_mg[b:b + 1],
                                  basal_insulin[b:b + 1])
            assert_bytes_equal(wide[:, b], one[:, 0], f"draw {seed} col {b}")


@pytest.mark.parametrize("block", range(0, N_DRAWS, 100))
def test_t1d_derivatives_match_stage(block):
    for seed in range(block, block + 100):
        (patients, cols, x, insulin, last_meal_mg, basal_insulin,
         _) = _t1d_draw(seed)
        stage = np.empty_like(x)
        _t1d_stage(cols, _t1d_step_inputs(cols, insulin, last_meal_mg,
                                          basal_insulin), x, stage)
        for b, params in enumerate(patients):
            assert_bytes_equal(
                t1d_equations(params, x[:, b], float(insulin[b]),
                              float(last_meal_mg[b]),
                              float(basal_insulin[b])),
                stage[:, b], f"draw {seed} col {b}")


@pytest.mark.parametrize("block", range(0, N_DRAWS, 100))
def test_ivp_rk4_width_and_scalar_parity(block):
    for seed in range(block, block + 100):
        patients, cols, x, insulin, fed, ra, dt = _ivp_draw(seed)
        wide = ivp_rk4_advance(cols, x, dt, insulin,
                               tuple(ra) if fed.any() else None)
        for b, params in enumerate(patients):
            one = ivp_rk4_advance(IVPColumns.from_params([params]),
                                  x[:, b:b + 1], dt, insulin[b:b + 1],
                                  tuple(ra[:, b:b + 1]) if fed[b] else None)
            assert_bytes_equal(wide[:, b], one[:, 0], f"draw {seed} col {b}")


@pytest.mark.parametrize("block", range(0, N_DRAWS, 100))
def test_ivp_derivatives_match_stage(block):
    for seed in range(block, block + 100):
        patients, cols, x, insulin, fed, ra, _ = _ivp_draw(seed)
        stage = np.empty_like(x)
        _ivp_stage(cols, insulin / cols.tau1_CI, x,
                   ra[0] if fed.any() else None, stage)
        for b, params in enumerate(patients):
            assert_bytes_equal(
                ivp_equations(params, x[:, b], float(insulin[b]),
                              float(ra[0, b]) if fed[b] else None),
                stage[:, b], f"draw {seed} col {b}")
