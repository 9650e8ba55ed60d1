"""Bit-parity of the batched patient kernels.

The lock-step engine's exactness rests on three identities, checked here
byte for byte over seeded draws for both models:

- column ``b`` of a 7-wide ``*_rk4_advance`` equals the ``B = 1`` call;
- the ``B = 1`` call equals the scalar patient's float ``_advance``;
- ``PatientModel.derivatives`` equals the per-stage kernel function.

Each S2013 draw mixes fed and fasting rows in one batch, a negative remote
insulin action ``X``, glucose below ``Gth`` and below ``Gb``, and empty and
filled guts; every fourth batch is all-fasting, so the step skips the
gastric-emptying ``tanh`` terms at width 7 too.
"""

import numpy as np
import pytest

from repro.patients import (GLUCOSYM_COHORT, T1DS2013_COHORT,
                            glucosym_patient, t1d_patient)
from repro.patients.kernels import (GP, QGUT, QSTO1, XA, IVPColumns,
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


def _t1d_draw(seed):
    """A 7-wide S2013 batch and one scalar patient per column."""
    rng = np.random.default_rng(seed)
    ids = rng.choice(sorted(T1DS2013_COHORT), WIDTH)
    patients = [t1d_patient(pid) for pid in ids]
    cols = T1DColumns.from_params([p.params for p in patients])
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
    """A 7-wide IVP batch, half its rows mid-meal, and scalar patients
    whose active meals produce the same rates of appearance."""
    rng = np.random.default_rng(seed)
    ids = rng.choice(sorted(GLUCOSYM_COHORT), WIDTH)
    patients = [glucosym_patient(pid) for pid in ids]
    cols = IVPColumns.from_params([p.params for p in patients])
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
    for b, patient in enumerate(patients):
        patient.t = float(rng.uniform(0.0, 600.0))
        if fed[b]:
            patient._active_meals = [
                (patient.t - rng.uniform(0.0, 200.0), rng.uniform(5e3, 1e5))
                for _ in range(rng.integers(1, 3))]
            ra[:, b] = [patient.meal_appearance(patient.t + s)
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
        for b, patient in enumerate(patients):
            one = t1d_rk4_advance(patient._cols, x[:, b:b + 1], dt,
                                  insulin[b:b + 1], last_meal_mg[b:b + 1],
                                  basal_insulin[b:b + 1])
            assert_bytes_equal(wide[:, b], one[:, 0], f"draw {seed} col {b}")
            patient._state = x[:, b].copy()
            patient._last_meal_mg = float(last_meal_mg[b])
            patient._basal_insulin = float(basal_insulin[b])
            patient._advance(dt, float(insulin[b]))
            assert_bytes_equal(patient._state, one[:, 0],
                               f"draw {seed} col {b} scalar")


@pytest.mark.parametrize("block", range(0, N_DRAWS, 100))
def test_t1d_derivatives_match_stage(block):
    for seed in range(block, block + 100):
        (patients, cols, x, insulin, last_meal_mg, basal_insulin,
         _) = _t1d_draw(seed)
        stage = np.empty_like(x)
        _t1d_stage(cols, _t1d_step_inputs(cols, insulin, last_meal_mg,
                                          basal_insulin), x, stage)
        for b, patient in enumerate(patients):
            patient._last_meal_mg = float(last_meal_mg[b])
            patient._basal_insulin = float(basal_insulin[b])
            assert_bytes_equal(patient.derivatives(0.0, x[:, b], insulin[b]),
                               stage[:, b], f"draw {seed} col {b}")


@pytest.mark.parametrize("block", range(0, N_DRAWS, 100))
def test_ivp_rk4_width_and_scalar_parity(block):
    for seed in range(block, block + 100):
        patients, cols, x, insulin, fed, ra, dt = _ivp_draw(seed)
        wide = ivp_rk4_advance(cols, x, dt, insulin,
                               tuple(ra) if fed.any() else None)
        for b, patient in enumerate(patients):
            one = ivp_rk4_advance(patient._cols, x[:, b:b + 1], dt,
                                  insulin[b:b + 1],
                                  tuple(ra[:, b:b + 1]) if fed[b] else None)
            assert_bytes_equal(wide[:, b], one[:, 0], f"draw {seed} col {b}")
            patient._state = x[:, b].copy()
            patient._advance(dt, float(insulin[b]))
            assert_bytes_equal(patient._state, one[:, 0],
                               f"draw {seed} col {b} scalar")


@pytest.mark.parametrize("block", range(0, N_DRAWS, 100))
def test_ivp_derivatives_match_stage(block):
    for seed in range(block, block + 100):
        patients, cols, x, insulin, fed, ra, _ = _ivp_draw(seed)
        stage = np.empty_like(x)
        _ivp_stage(cols, insulin / cols.tau1_CI, x,
                   ra[0] if fed.any() else None, stage)
        for b, patient in enumerate(patients):
            assert_bytes_equal(
                patient.derivatives(patient.t, x[:, b], insulin[b]),
                stage[:, b], f"draw {seed} col {b}")
