"""Tests for the insulin activity curve and the engine's IOB."""

import numpy as np
import pytest

from repro.controllers import InsulinActivityCurve, OpenAPSController
from repro.fi import FaultKind, FaultSpec, FaultTarget
from repro.patients import make_patient
from repro.simulation import CampaignPlan, SimRun, run_batch
from repro.simulation.vector import _band_sum, _iob_tables
from tests.conftest import commanded_run


class TestActivityCurve:
    def test_iob_fraction_starts_at_one(self):
        curve = InsulinActivityCurve()
        assert curve.iob_fraction(0.0) == 1.0

    def test_iob_fraction_zero_after_dia(self):
        curve = InsulinActivityCurve(dia=300)
        assert curve.iob_fraction(300.0) == 0.0
        assert curve.iob_fraction(400.0) == 0.0

    def test_iob_fraction_monotone_decreasing(self):
        curve = InsulinActivityCurve()
        ts = np.linspace(0, 300, 61)
        fracs = [curve.iob_fraction(t) for t in ts]
        assert all(a >= b - 1e-12 for a, b in zip(fracs, fracs[1:]))

    def test_activity_peaks_at_peak_time(self):
        curve = InsulinActivityCurve(dia=300, peak=75)
        ts = np.linspace(1, 299, 597)
        activities = np.array([curve.activity(t) for t in ts])
        t_peak = ts[np.argmax(activities)]
        assert t_peak == pytest.approx(75, abs=3)

    def test_activity_zero_outside_window(self):
        curve = InsulinActivityCurve()
        assert curve.activity(0.0) == 0.0
        assert curve.activity(300.0) == 0.0

    def test_activity_integrates_to_one(self):
        """Activity is the decay rate of IOB, so it integrates to 1 unit."""
        curve = InsulinActivityCurve()
        ts = np.linspace(0, 300, 3001)
        total = np.trapezoid([curve.activity(t) for t in ts], ts)
        assert total == pytest.approx(1.0, abs=0.01)

    def test_activity_is_minus_iob_derivative(self):
        curve = InsulinActivityCurve()
        h = 1e-3
        for t in (30.0, 75.0, 150.0, 250.0):
            numeric = (curve.iob_fraction(t + h) - curve.iob_fraction(t - h)) / (2 * h)
            assert -numeric == pytest.approx(curve.activity(t), rel=1e-3)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            InsulinActivityCurve(dia=0)
        with pytest.raises(ValueError):
            InsulinActivityCurve(dia=300, peak=150)  # peak must be < DIA/2
        with pytest.raises(ValueError):
            InsulinActivityCurve(dia=300, peak=0)


def basal_b():
    return make_patient("glucosym", "B").basal_rate(120.0)


class TestIOBCalculator:
    """The engine's net IOB, driven by commanded deliveries: each cycle's
    delivery above the scheduled basal is one impulse at its midpoint."""

    def test_bolus_appears_in_iob(self):
        trace = commanded_run("glucosym", "B", [basal_b()] * 2, [2.0, 0.0])
        assert trace.iob[1] == pytest.approx(2.0, abs=0.05)

    def test_iob_decays_to_zero(self):
        """A bolus leaves no trace in the IOB once its DIA has passed."""
        rates = [basal_b()] * 70
        with_bolus = commanded_run("glucosym", "B", rates, [2.0] + [0.0] * 69)
        without = commanded_run("glucosym", "B", rates)
        assert with_bolus.iob[1] - without.iob[1] > 1.9
        # the bolus impulse sits at 2.5 min: lag >= 300 from cycle 61 on
        np.testing.assert_array_equal(with_bolus.iob[61:], without.iob[61:])

    def test_basal_accumulates(self):
        # one hour at 2 U/h above basal: 2 U, most still on board
        trace = commanded_run("glucosym", "B", [basal_b() + 2.0] * 13)
        assert 1.5 <= trace.iob[12] <= 2.0

    def test_net_iob_with_basal_offset(self):
        """At scheduled basal, net IOB stays zero (to the pump's grid)."""
        trace = commanded_run("glucosym", "B", [basal_b()] * 13)
        assert trace.iob[12] == pytest.approx(0.0, abs=0.05)

    def test_net_iob_negative_when_below_basal(self):
        trace = commanded_run("glucosym", "B", [0.0] * 13)
        assert trace.iob[12] < 0

    def test_activity_positive_during_decay(self):
        """Every delivery inside the DIA window weighs on the activity the
        controller projects with."""
        _, act, band_start = _iob_tables(InsulinActivityCurve(), 13, 5.0)
        assert (act[12, :12 - band_start[12]] > 0).all()

    def test_iob_rate_is_minus_activity(self):
        """The recorded IOB' of a lone bolus decays at minus its activity
        (to the finite difference over one cycle)."""
        rates = [basal_b()] * 40
        with_bolus = commanded_run("glucosym", "B", rates, [1.0] + [0.0] * 39)
        without = commanded_run("glucosym", "B", rates)
        curve = InsulinActivityCurve()
        for k in (12, 24, 36):
            slope = with_bolus.iob_rate[k] - without.iob_rate[k]
            assert slope == pytest.approx(-curve.activity(5.0 * k - 5.0),
                                          rel=0.02)

    def test_reset(self):
        """IOB never leaks between runs: a bolus-heavy row leaves its
        batch neighbour's IOB exactly as that run has it alone."""
        heavy = SimRun("B", 200.0, "heavy", FaultSpec(
            FaultKind.MAX, FaultTarget.BOLUS, 0, 6))
        calm = SimRun("B", 120.0, "calm")
        batch = run_batch("glucosym", [heavy, calm], n_steps=12)
        alone = run_batch("glucosym", [calm], n_steps=12)
        assert batch[0].iob[6] > 1.0
        np.testing.assert_array_equal(batch[1].iob, alone[0].iob)

    def test_invalid_duration(self):
        """Deliveries are recorded per control cycle, which must last a
        positive time."""
        with pytest.raises(ValueError, match="dt"):
            CampaignPlan(platform="glucosym", runs=(), dt=0.0)

    def test_invalid_offset(self):
        """The net-IOB offset is the scheduled basal, never negative."""
        with pytest.raises(ValueError, match="basal"):
            OpenAPSController(basal=-1.0)

    def test_old_deliveries_pruned(self):
        """Deliveries past the DIA leave the band: at cycle 100 the
        oldest term is cycle 40's (lag 297.5 min)."""
        _, _, band_start = _iob_tables(InsulinActivityCurve(), 101, 5.0)
        assert band_start[100] == 40
        assert band_start[30] == 0


class TestSummationOrder:
    """The engine's band sum adds each row's terms left to right from 0,
    in delivery order, at any batch width (``np.sum`` may switch to
    pairwise summation; builtin ``sum`` compensates from Python 3.12)."""

    @staticmethod
    def left_to_right(terms):
        total = 0.0
        for term in terms:
            total += term
        return total + 0.0

    def test_random_histories_match_accumulate_order(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n_terms, width = int(rng.integers(1, 80)), int(rng.integers(1, 9))
            units = rng.uniform(-0.2, 4.0, (n_terms, width))
            weights = rng.uniform(0.0, 1.0, n_terms + 3)
            total = _band_sum(units, weights)
            for b in range(width):
                expected = self.left_to_right(units[:, b] * weights[:n_terms])
                assert total[b] == expected
                assert _band_sum(units[:, [b]], weights)[0] == expected

    def test_cancelling_terms(self):
        band = np.array([[1.0], [1e100], [1.0], [-1e100]])
        # every weight 1: left to right gives 0.0, compensated summation 2.0
        assert _band_sum(band, np.ones(4))[0] == 0.0
        assert _band_sum(band[:0], np.ones(4))[0] == 0.0
