"""Tests for the medical-guidelines (Table III) baseline monitor."""

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
        assert "phi1-low" in verdict.triggered

    def test_high_bg_alerts_h2(self):
        verdict = GuidelineMonitor().observe(ctx(bg=190.0))
        assert verdict.alert and verdict.hazard == HazardType.H2


class TestPhi2:
    def test_fast_fall_alerts(self):
        # -1.2 mg/dL/min = -6 per 5-minute cycle < -5
        verdict = GuidelineMonitor().observe(ctx(bg_rate=-1.2))
        assert verdict.alert and "phi2-fall" in verdict.triggered

    def test_fast_rise_alerts(self):
        verdict = GuidelineMonitor().observe(ctx(bg_rate=0.8))
        assert verdict.alert and "phi2-rise" in verdict.triggered

    def test_slow_change_silent(self):
        assert not GuidelineMonitor().observe(ctx(bg_rate=0.3)).alert


class TestPhi3Phi4:
    def test_sustained_low_percentile_alerts(self):
        monitor = GuidelineMonitor(lambda_10=90.0, alpha=25.0)
        for i in range(7):
            verdict = monitor.observe(ctx(bg=85.0, t=5.0 * i))
        assert "phi3" in verdict.triggered

    def test_recovery_resets_deadline(self):
        monitor = GuidelineMonitor(lambda_10=90.0, alpha=25.0)
        monitor.observe(ctx(bg=85.0, t=0.0))
        monitor.observe(ctx(bg=95.0, t=5.0))  # recovered
        verdict = monitor.observe(ctx(bg=85.0, t=10.0))
        assert "phi3" not in verdict.triggered

    def test_sustained_high_percentile_alerts(self):
        monitor = GuidelineMonitor(lambda_90=160.0, alpha=25.0)
        verdict = None
        for i in range(7):
            verdict = monitor.observe(ctx(bg=170.0, t=5.0 * i))
        assert "phi4" in verdict.triggered

    def test_reset_clears_deadlines(self):
        monitor = GuidelineMonitor(lambda_10=90.0, alpha=25.0)
        for i in range(4):
            monitor.observe(ctx(bg=85.0, t=5.0 * i))
        monitor.reset()
        verdict = monitor.observe(ctx(bg=85.0, t=0.0))
        assert "phi3" not in verdict.triggered


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
