"""Tests for the medical-guidelines (Table III) baseline monitor.

Each test feeds contexts in which only the clause it names can fire: the
phi3/phi4 deadlines cannot fire on a monitor's first cycle, phi2 needs a
non-zero rate, and phi1 needs glucose outside [70, 180] mg/dL.
"""

import pytest

from repro.baselines import GuidelineMonitor
from repro.controllers import ControlAction
from repro.core import ContextVector
from repro.hazards import HazardType


def ctx(bg=120.0, bg_rate=0.0, t=0.0):
    return ContextVector(t=t, bg=bg, bg_rate=bg_rate, iob=1.0, iob_rate=0.0,
                         rate=1.0, bolus=0.0, action=ControlAction.KEEP)


class TestPhi1:
    def test_normal_range_silent(self):
        assert not GuidelineMonitor().observe(ctx(bg=120.0)).alert

    def test_low_bg_alerts_h1(self):
        verdict = GuidelineMonitor().observe(ctx(bg=65.0))
        assert verdict.alert and verdict.hazard == HazardType.H1

    def test_high_bg_alerts_h2(self):
        verdict = GuidelineMonitor().observe(ctx(bg=190.0))
        assert verdict.alert and verdict.hazard == HazardType.H2


class TestPhi2:
    def test_fast_fall_alerts(self):
        # -1.2 mg/dL/min = -6 per 5-minute cycle < -5
        verdict = GuidelineMonitor().observe(ctx(bg_rate=-1.2))
        assert verdict.alert and verdict.hazard == HazardType.H1

    def test_fast_rise_alerts(self):
        verdict = GuidelineMonitor().observe(ctx(bg_rate=0.8))
        assert verdict.alert and verdict.hazard == HazardType.H2

    def test_slow_change_silent(self):
        assert not GuidelineMonitor().observe(ctx(bg_rate=0.3)).alert


class TestPhi3Phi4:
    def test_sustained_low_percentile_alerts(self):
        monitor = GuidelineMonitor(lambda_10=90.0, alpha=25.0)
        verdicts = [monitor.observe(ctx(bg=85.0, t=5.0 * i))
                    for i in range(7)]
        # the excursion has lasted more than alpha only at t = 30
        assert not any(verdict.alert for verdict in verdicts[:6])
        assert verdicts[6].alert and verdicts[6].hazard == HazardType.H1

    def test_recovery_resets_deadline(self):
        monitor = GuidelineMonitor(lambda_10=90.0, alpha=25.0)
        monitor.observe(ctx(bg=85.0, t=0.0))
        monitor.observe(ctx(bg=95.0, t=5.0))  # recovered
        verdict = monitor.observe(ctx(bg=85.0, t=10.0))
        assert not verdict.alert

    def test_sustained_high_percentile_alerts(self):
        monitor = GuidelineMonitor(lambda_90=160.0, alpha=25.0)
        verdicts = [monitor.observe(ctx(bg=170.0, t=5.0 * i))
                    for i in range(7)]
        assert not any(verdict.alert for verdict in verdicts[:6])
        assert verdicts[6].alert and verdicts[6].hazard == HazardType.H2

    def test_reset_clears_deadlines(self):
        monitor = GuidelineMonitor(lambda_10=90.0, alpha=25.0)
        for i in range(4):
            monitor.observe(ctx(bg=85.0, t=5.0 * i))
        monitor.reset()
        verdict = monitor.observe(ctx(bg=85.0, t=0.0))
        assert not verdict.alert


class TestFit:
    def test_fit_sets_percentiles(self):
        from repro.simulation import run_fault_free
        traces = run_fault_free("glucosym", ["B"], (120.0,), n_steps=50)
        monitor = GuidelineMonitor().fit(traces)
        assert 100.0 < monitor.lambda_10 <= monitor.lambda_90 < 200.0

    def test_validation(self):
        with pytest.raises(ValueError):
            GuidelineMonitor(bg_low=200, bg_high=100)
        with pytest.raises(ValueError):
            GuidelineMonitor(delta_low=3, delta_high=-5)
        with pytest.raises(ValueError):
            GuidelineMonitor(alpha=0)
