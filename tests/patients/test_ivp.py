"""Tests for the IVP (Glucosym-substitute) patient model."""

import numpy as np
import pytest

from repro.patients import (GLUCOSYM_COHORT, IVPColumns, IVPParams, Meal,
                            glucosym_patient)
from repro.patients.base import UU_PER_UNIT
from repro.patients.ivp import meal_ra
from repro.patients.kernels import ivp_init_state, ivp_rk4_advance
from repro.simulation import SimRun
from tests.conftest import commanded_run


class TestParams:
    def test_cohort_has_ten_patients(self):
        assert len(GLUCOSYM_COHORT) == 10
        assert set(GLUCOSYM_COHORT) == set("ABCDEFGHIJ")

    def test_cohort_parameters_in_published_ranges(self):
        for params in GLUCOSYM_COHORT.values():
            assert 2e-4 <= params.SI <= 2e-3
            assert 5e-4 <= params.GEZI <= 5e-3
            assert 0.5 <= params.EGP <= 2.5
            assert 1000 <= params.CI <= 3500
            assert 30 <= params.tau1 <= 80
            assert 30 <= params.tau2 <= 80
            assert 0.003 <= params.p2 <= 0.03
            assert 40 <= params.BW <= 120

    def test_cohort_parameters_distinct(self):
        values = {p.SI for p in GLUCOSYM_COHORT.values()}
        assert len(values) == 10, "patients must be genuinely different"

    def test_nonpositive_param_rejected(self):
        with pytest.raises(ValueError):
            IVPParams(SI=0, GEZI=1e-3, EGP=1.0, CI=2000, tau1=50, tau2=50,
                      p2=0.01, BW=70)

    def test_open_loop_glucose(self):
        p = GLUCOSYM_COHORT["B"]
        assert p.open_loop_glucose == pytest.approx(p.EGP / p.GEZI)


def advance(pid, minutes, rate_u_h, bolus_u=0.0, init_glucose=120.0):
    """The patient's ``(4, 1)`` kernel state after *minutes* of 1-minute
    RK4 steps at *rate_u_h*, a bolus infused over the first minute."""
    cols = IVPColumns.from_params([GLUCOSYM_COHORT[pid]])
    x = ivp_init_state(cols, [init_glucose])
    basal = rate_u_h * UU_PER_UNIT / 60.0
    for i in range(minutes):
        x = ivp_rk4_advance(cols, x, 1.0,
                            basal + (bolus_u * UU_PER_UNIT if i == 0 else 0.0))
    return x


def glucose_after(pid, minutes, rate_u_h, **kwargs):
    return float(advance(pid, minutes, rate_u_h, **kwargs)[3, 0])


class TestSteadyState:
    def test_basal_rate_physiologic(self):
        for pid in GLUCOSYM_COHORT:
            basal = glucosym_patient(pid).basal_rate()
            assert 0.3 <= basal <= 4.0, f"patient {pid} basal {basal} U/h"

    def test_basal_holds_glucose(self):
        basal = glucosym_patient("B").basal_rate()
        assert glucose_after("B", 180, basal) == pytest.approx(120.0, abs=0.5)

    def test_basal_rate_decreases_with_target(self):
        patient = glucosym_patient("B")
        assert patient.basal_rate(100.0) > patient.basal_rate(160.0)

    def test_invalid_target_rejected(self):
        with pytest.raises(ValueError):
            glucosym_patient("B").basal_rate(0.0)


class TestDynamics:
    def test_no_insulin_raises_glucose(self):
        assert glucose_after("B", 180, 0.0) > 120.0 + 10

    def test_overdose_lowers_glucose(self):
        basal = glucosym_patient("B").basal_rate()
        assert glucose_after("B", 180, 5.0 * basal) < 100

    def test_glucose_rise_bounded_by_open_loop(self):
        limit = GLUCOSYM_COHORT["B"].open_loop_glucose
        assert glucose_after("B", 2000, 0.0) <= limit + 1.0

    def test_meal_raises_glucose(self):
        basal = glucosym_patient("B").basal_rate()
        trace = commanded_run("glucosym", "B", [basal] * 37,
                              meals=(Meal(time=10.0, carbs=40.0),))
        assert trace.true_bg.max() > 180

    def test_meal_conservation_scale(self):
        """Total meal glucose appearance matches carbs/Vg."""
        v_g = GLUCOSYM_COHORT["B"].glucose_volume_dl
        total = sum(meal_ra(s, 50.0 * 1000.0, v_g)
                    for s in np.arange(0, 600, 0.5)) * 0.5
        expected = 50.0 * 1000.0 / v_g
        assert total == pytest.approx(expected, rel=0.01)

    def test_glucose_floor_holds(self):
        # massive overdose
        assert glucose_after("J", 1500, 10.0) >= 10.0

    def test_insulin_states_nonnegative(self):
        assert (advance("A", 250, 0.0) >= 0).all()


class TestStepInterface:
    def test_negative_basal_rejected(self):
        """The plant never receives negative insulin: the pump delivers a
        negative rate command as zero."""
        negative = commanded_run("glucosym", "A", [-1.0] * 12)
        zero = commanded_run("glucosym", "A", [0.0] * 12)
        assert (negative.delivered_rate == 0.0).all()
        np.testing.assert_array_equal(negative.true_bg, zero.true_bg)

    def test_negative_bolus_rejected(self):
        negative = commanded_run("glucosym", "A", [1.0] * 12, [-0.5] * 12)
        zero = commanded_run("glucosym", "A", [1.0] * 12)
        assert (negative.delivered_bolus == 0.0).all()
        np.testing.assert_array_equal(negative.true_bg, zero.true_bg)

    def test_bolus_lowers_glucose_more(self):
        basal = glucosym_patient("B").basal_rate()
        g1 = glucose_after("B", 120, basal)
        assert glucose_after("B", 120, basal, bolus_u=0.0) == g1
        assert glucose_after("B", 120, basal, bolus_u=2.0) < g1 - 5

    def test_time_advances(self):
        trace = commanded_run("glucosym", "A", [1.0, 1.0])
        assert trace.t[1] == pytest.approx(5.0)

    def test_reset_restores_time_and_glucose(self):
        x = advance("A", 0, 0.0, init_glucose=150.0)
        assert x[3, 0] == 150.0
        # quasi-steady: the insulin that holds 150 mg/dL is on board
        assert x[2, 0] == pytest.approx(GLUCOSYM_COHORT["A"].SI * x[1, 0])

    def test_reset_invalid_glucose(self):
        with pytest.raises(ValueError):
            SimRun("A", -5.0, "x")

    def test_unknown_patient_id(self):
        with pytest.raises(KeyError, match="unknown"):
            glucosym_patient("Z")

    def test_patient_prefix_accepted(self):
        patient = glucosym_patient("patientA")
        assert patient.name.endswith("/A")

    def test_determinism(self):
        assert glucose_after("C", 100, 1.0) == glucose_after("C", 100, 1.0)
