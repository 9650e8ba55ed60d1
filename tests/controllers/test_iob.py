"""Tests for the insulin activity curve and IOB calculator."""

import numpy as np
import pytest

from repro.controllers import InsulinActivityCurve, IOBCalculator


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


class TestIOBCalculator:
    def test_bolus_appears_in_iob(self):
        calc = IOBCalculator()
        calc.record(0.0, 2.0, t=0.0, duration=5.0)
        assert calc.iob(5.0) == pytest.approx(2.0, abs=0.05)

    def test_iob_decays_to_zero(self):
        calc = IOBCalculator()
        calc.record(0.0, 2.0, t=0.0, duration=5.0)
        assert calc.iob(400.0) == 0.0

    def test_basal_accumulates(self):
        calc = IOBCalculator()
        for i in range(12):  # one hour at 2 U/h
            calc.record(2.0, 0.0, t=5.0 * i, duration=5.0)
        # delivered 2 U over the hour; most still on board
        assert 1.5 <= calc.iob(60.0) <= 2.0

    def test_net_iob_with_basal_offset(self):
        """At scheduled basal, net IOB stays zero."""
        calc = IOBCalculator(basal_offset=1.0)
        for i in range(12):
            calc.record(1.0, 0.0, t=5.0 * i, duration=5.0)
        assert calc.iob(60.0) == pytest.approx(0.0)

    def test_net_iob_negative_when_below_basal(self):
        calc = IOBCalculator(basal_offset=1.0)
        for i in range(12):
            calc.record(0.0, 0.0, t=5.0 * i, duration=5.0)
        assert calc.iob(60.0) < 0

    def test_activity_positive_during_decay(self):
        calc = IOBCalculator()
        calc.record(0.0, 1.0, t=0.0, duration=5.0)
        assert calc.activity(60.0) > 0

    def test_iob_rate_is_minus_activity(self):
        calc = IOBCalculator()
        calc.record(0.0, 1.0, t=0.0, duration=5.0)
        assert calc.iob_rate(60.0) == -calc.activity(60.0)

    def test_old_deliveries_pruned(self):
        calc = IOBCalculator()
        calc.record(0.0, 1.0, t=0.0, duration=5.0)
        calc.record(0.0, 0.5, t=1000.0, duration=5.0)
        assert len(calc._deliveries) == 1

    def test_reset(self):
        calc = IOBCalculator()
        calc.record(0.0, 3.0, t=0.0, duration=5.0)
        calc.reset()
        assert calc.iob(5.0) == 0.0

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            IOBCalculator().record(1.0, 0.0, t=0.0, duration=0.0)

    def test_invalid_offset(self):
        with pytest.raises(ValueError):
            IOBCalculator(basal_offset=-1.0)


class TestSummationOrder:
    """``iob`` and ``activity`` add their terms left to right from 0, the
    order the lock-step engine's ``np.add.accumulate`` band sum replays,
    on every Python version (builtin ``sum`` compensates rounding from
    Python 3.12 on)."""

    @staticmethod
    def accumulated(calc, t, term):
        terms = [u * term(t - tm) for tm, u in calc._deliveries if tm <= t]
        return np.add.accumulate(terms)[-1]

    def test_random_histories_match_accumulate_order(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            calc = IOBCalculator(basal_offset=rng.uniform(0.0, 1.5))
            n_cycles = int(rng.integers(1, 80))
            for i in range(n_cycles):
                bolus = rng.uniform(0.0, 4.0) if rng.random() < 0.2 else 0.0
                calc.record(rng.uniform(0.0, 3.0), bolus, t=5.0 * i,
                            duration=5.0)
            t = 5.0 * n_cycles
            curve = calc.curve
            assert calc.iob(t) == self.accumulated(calc, t,
                                                   curve.iob_fraction)
            assert calc.activity(t) == self.accumulated(calc, t,
                                                        curve.activity)

    def test_cancelling_terms(self):
        calc = IOBCalculator()
        for units in (1.0, 1e100, 1.0, -1e100):
            calc.record(0.0, units, t=0.0, duration=5.0)
        # at lag 0 every IOB fraction is 1: left to right gives 0.0,
        # compensated summation 2.0
        assert calc.iob(2.5) == 0.0
        for lag in (0.0, 60.0):
            t = 2.5 + lag
            assert calc.iob(t) == self.accumulated(
                calc, t, calc.curve.iob_fraction)
            assert calc.activity(t) == self.accumulated(
                calc, t, calc.curve.activity)
