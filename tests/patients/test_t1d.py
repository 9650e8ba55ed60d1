"""Tests for the Dalla Man S2013 (UVA-Padova-substitute) patient model."""

import numpy as np
import pytest

from repro.patients import (Meal, T1DColumns, T1DParams, T1DS2013_COHORT,
                            t1d_patient)
from repro.patients.base import UU_PER_UNIT
from repro.patients.kernels import (GP, GS, IP, QSTO1, XA, _t1d_gastric_inputs,
                                    _t1d_kempt, t1d_init_state,
                                    t1d_rk4_advance, t1d_risk)
from repro.patients.t1d import solve_kp1, _solve_basal_state
from repro.simulation import SimRun
from repro.simulation.vector import _T1DBatch
from tests.conftest import commanded_run


class TestCohort:
    def test_cohort_has_ten_patients(self):
        assert len(T1DS2013_COHORT) == 10
        assert all(pid.startswith("P") for pid in T1DS2013_COHORT)

    def test_cohort_is_steady_state_consistent(self):
        """Every cohort member has a well-posed positive basal."""
        for pid, params in T1DS2013_COHORT.items():
            _, ib, iirb = _solve_basal_state(params, params.Gb)
            assert ib > 0, pid
            assert iirb > 0, pid

    def test_basal_insulin_physiologic(self):
        for pid, params in T1DS2013_COHORT.items():
            _, ib, _ = _solve_basal_state(params, params.Gb)
            assert 30 <= ib <= 120, f"{pid}: basal insulin {ib} pmol/L"

    def test_basal_rates_physiologic(self):
        for pid in T1DS2013_COHORT:
            basal = t1d_patient(pid).basal_rate()
            assert 0.4 <= basal <= 3.0, f"{pid}: basal {basal} U/h"

    def test_solve_kp1_round_trip(self):
        params = T1DS2013_COHORT["P01"]
        _, ib, _ = _solve_basal_state(params, params.Gb)
        assert solve_kp1(params, ib) == pytest.approx(params.kp1)

    def test_unknown_patient(self):
        with pytest.raises(KeyError, match="unknown"):
            t1d_patient("P99")


def advance(pid, minutes, rate_u_h, init_glucose=120.0):
    """The patient's ``(13, 1)`` kernel state after *minutes* of 1-minute
    RK4 steps at *rate_u_h* (insulin reference anchored at 120 mg/dL)."""
    cols = T1DColumns.from_params([T1DS2013_COHORT[pid]])
    x, ib = t1d_init_state(cols, [init_glucose], [120.0])
    for _ in range(minutes):
        x = t1d_rk4_advance(cols, x, 1.0, rate_u_h * UU_PER_UNIT / 60.0,
                            np.zeros(1), ib)
    return x


def glucose_after(pid, minutes, rate_u_h, **kwargs):
    x = advance(pid, minutes, rate_u_h, **kwargs)
    return float(x[GP, 0] / T1DS2013_COHORT[pid].VG)


def cols_of(pid):
    return T1DColumns.from_params([T1DS2013_COHORT[pid]])


class TestSteadyState:
    def test_basal_holds_glucose(self):
        basal = t1d_patient("P01").basal_rate()
        assert glucose_after("P01", 360, basal) == pytest.approx(120.0,
                                                                 abs=1.0)

    def test_sensor_tracks_blood_glucose_at_rest(self):
        x = advance("P02", 120, t1d_patient("P02").basal_rate())
        glucose = x[GP, 0] / T1DS2013_COHORT["P02"].VG
        assert x[GS, 0] == pytest.approx(glucose, abs=1.0)

    def test_unsustainable_target_rejected(self):
        patient = t1d_patient("P01")
        with pytest.raises(ValueError, match="sustain"):
            patient.basal_rate(400.0)  # EGP cannot push BG this high


class TestDynamics:
    def test_insulin_suspension_raises_glucose(self):
        assert glucose_after("P01", 750, 0.0) > 200  # 12.5 hours

    def test_overdose_causes_hypoglycemia(self):
        basal = t1d_patient("P01").basal_rate()
        assert glucose_after("P01", 750, 5.0 * basal) < 60

    def test_sensor_lags_blood_glucose(self):
        """Interstitial glucose lags plasma during a rapid fall."""
        basal = t1d_patient("P01").basal_rate()
        trace = commanded_run("t1ds2013", "P01", [basal] * 25,
                              [3.0] + [0.0] * 24)
        lagged = int((trace.cgm[1:] > trace.true_bg[1:]).sum())
        assert lagged > 12, "sensor should sit above plasma during a fall"

    def test_meal_raises_glucose(self):
        basal = t1d_patient("P01").basal_rate()
        trace = commanded_run("t1ds2013", "P01", [basal] * 49,
                              meals=(Meal(time=10.0, carbs=50.0),))
        assert trace.true_bg.max() > 160

    def test_remote_insulin_action_can_go_negative(self):
        assert advance("P01", 180, 0.0)[XA, 0] < 0  # X below basal

    def test_glucose_floor(self):
        assert glucose_after("P03", 1500, 8.0) >= 10.0

    def test_risk_amplification_active_below_basal_glucose(self):
        cols = cols_of("P01")
        assert t1d_risk(cols, [120.0])[0] == 0.0
        assert t1d_risk(cols, [80.0])[0] > 0.0
        # saturates below Gth
        assert t1d_risk(cols, [40.0])[0] == pytest.approx(
            t1d_risk(cols, [60.0])[0])

    def test_risk_monotone_decreasing_in_glucose(self):
        risks = list(t1d_risk(cols_of("P01"), [60.0, 80.0, 100.0, 119.0]))
        assert risks == sorted(risks, reverse=True)


def gastric_emptying(pid, qsto, last_meal_mg):
    cols = cols_of(pid)
    inputs = _t1d_gastric_inputs(cols, np.array([last_meal_mg]))
    return float(_t1d_kempt(cols, inputs, np.array([qsto]))[0])


class TestGastricEmptying:
    def test_no_meal_uses_kmax(self):
        assert gastric_emptying("P01", 0.0, 0.0) \
            == T1DS2013_COHORT["P01"].kmax

    def test_emptying_rate_bounded(self):
        p = T1DS2013_COHORT["P01"]
        for qsto in np.linspace(0, 60000, 25):
            k = gastric_emptying("P01", qsto, 60000.0)
            assert p.kmin - 1e-12 <= k <= p.kmax + 1e-12

    def test_meal_mass_enters_stomach(self):
        plant = _T1DBatch([T1DS2013_COHORT["P01"]])
        x = plant.reset(np.array([120.0]), 120.0)
        plant.ingest(x, [0], 60.0 * 1000.0)
        assert x[QSTO1, 0] == pytest.approx(60000.0)  # mg
        assert plant.last_meal_mg[0] == 60000.0


class TestInterface:
    def test_reset_sets_glucose_and_time(self):
        x = advance("P05", 0, 0.0, init_glucose=160.0)
        assert x[GP, 0] / T1DS2013_COHORT["P05"].VG == pytest.approx(160.0)
        assert x[GS, 0] == pytest.approx(160.0)

    def test_invalid_reset(self):
        with pytest.raises(ValueError):
            SimRun("P05", 0.0, "x")

    def test_determinism(self):
        assert glucose_after("P04", 100, 1.0) == glucose_after("P04", 100, 1.0)

    def test_nonpositive_parameter_rejected(self):
        with pytest.raises(ValueError):
            T1DParams(VG=-1.0)

    def test_plasma_insulin_positive_at_rest(self):
        x = advance("P01", 0, 0.0)
        assert x[IP, 0] / T1DS2013_COHORT["P01"].VI > 0
