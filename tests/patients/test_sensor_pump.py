"""Tests for the engine's CGM and insulin pump stages."""

import numpy as np
import pytest

from repro.fi import FaultKind, FaultSpec, FaultTarget, InjectionScenario
from repro.patients import InsulinPump
from repro.patients.sensor import CGM_RANGE
from repro.simulation import CampaignPlan, run_campaign, run_fault_free
from tests.conftest import commanded_run


class TestCGMSensor:
    def test_ideal_sensor_passthrough(self):
        """Inside its range the CGM reads the sensor compartment exactly
        (the blood glucose, on the IVP model)."""
        trace, = run_fault_free("glucosym", ["B"], (123.4,), n_steps=30,
                                cache=None)
        assert trace.cgm[0] == 123.4
        np.testing.assert_array_equal(trace.cgm, trace.true_bg)

    def test_clipping_at_cgm_range(self):
        low, high = run_campaign("glucosym", ["C"], [
            InjectionScenario(FaultSpec(FaultKind.MAX, FaultTarget.RATE,
                                        0, 150), 120.0),
            InjectionScenario(FaultSpec(FaultKind.TRUNCATE, FaultTarget.RATE,
                                        0, 150), 200.0)])
        assert low.true_bg.min() < CGM_RANGE[0]
        np.testing.assert_array_equal(low.cgm, np.clip(low.true_bg,
                                                       *CGM_RANGE))
        assert high.true_bg.max() > CGM_RANGE[1]
        np.testing.assert_array_equal(high.cgm, np.clip(high.true_bg,
                                                        *CGM_RANGE))


class TestInsulinPump:
    def test_quantization(self):
        trace = commanded_run("glucosym", "B", [1.23, 0.04])
        assert trace.delivered_rate[0] == pytest.approx(1.20)
        assert trace.delivered_rate[1] == 0.0

    def test_quantize_exact_grid(self):
        trace = commanded_run("glucosym", "B", [1.05])
        assert trace.delivered_rate[0] == pytest.approx(1.05)

    def test_clamping_to_max(self):
        trace = commanded_run("glucosym", "B", [99.0])
        assert trace.delivered_rate[0] == InsulinPump().max_basal

    def test_negative_command_clamped_to_zero(self):
        assert commanded_run("glucosym", "B", [-2.0]).delivered_rate[0] == 0.0

    def test_bolus_clamped(self):
        trace = commanded_run("t1ds2013", "P01", [1.0, 1.0], [17.0, -1.0])
        np.testing.assert_array_equal(trace.delivered_bolus,
                                      [InsulinPump().max_bolus, 0.0])

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            InsulinPump(max_basal=0)
        with pytest.raises(ValueError):
            InsulinPump(increment=0)

    def test_invalid_delivery_duration(self):
        """Deliveries last one control cycle, which must be positive."""
        with pytest.raises(ValueError, match="dt"):
            CampaignPlan(platform="glucosym", runs=(), dt=-5.0)
