"""Tests for the Basal-Bolus controller: its tuning and the engine's
batched protocol (``_BasalBolusBatch``)."""

import numpy as np
import pytest

from repro.controllers import BasalBolusController, ControlAction
from repro.fi import FaultKind, FaultSpec, FaultTarget, InjectionScenario
from repro.simulation import run_campaign, run_fault_free
from repro.simulation.vector import _BasalBolusBatch, _classify


def make_controller(**kwargs):
    defaults = dict(basal=1.0, isf=50.0, target=120.0)
    defaults.update(kwargs)
    return _BasalBolusBatch([BasalBolusController(**defaults)])


def decide(controller, glucose, t, iob=0.0):
    """One cycle for one row: ``(basal, bolus, action)``."""
    rate, bolus = controller.decide(int(t // 5), t, np.array([glucose]),
                                    np.array([iob]))
    action = ControlAction(int(_classify(rate, bolus, controller.basal)[0]))
    return float(rate[0]), float(bolus[0]), action


class TestDecisions:
    def test_normal_range_keeps_basal(self):
        basal, bolus, action = decide(make_controller(), 120.0, 0.0)
        assert action == ControlAction.KEEP
        assert basal == 1.0
        assert bolus == 0.0

    def test_high_glucose_correction_bolus(self):
        _, bolus, action = decide(make_controller(), 220.0, 0.0)
        assert action == ControlAction.INCREASE
        assert bolus == pytest.approx((220 - 120) / 50.0)

    def test_bolus_discounts_iob(self):
        _, bolus, _ = decide(make_controller(), 220.0, 5.0, iob=0.9)
        assert bolus == pytest.approx((220 - 120) / 50.0 - 0.9)

    def test_bolus_capped(self):
        _, bolus, _ = decide(make_controller(max_bolus=2.0), 500.0, 0.0)
        assert bolus == 2.0

    def test_refractory_period(self):
        c = make_controller(correction_interval=60.0)
        assert decide(c, 220.0, 0.0)[1] > 0
        assert decide(c, 220.0, 30.0)[1] == 0.0
        assert decide(c, 220.0, 60.0)[1] > 0

    def test_low_glucose_reduces_basal(self):
        basal, _, action = decide(make_controller(), 90.0, 0.0)
        assert action == ControlAction.DECREASE
        assert basal == pytest.approx(0.5)

    def test_very_low_glucose_suspends(self):
        basal, _, action = decide(make_controller(), 60.0, 0.0)
        assert action == ControlAction.STOP
        assert basal == 0.0

    def test_no_negative_bolus(self):
        _, bolus, _ = decide(make_controller(), 160.0, 5.0, iob=5.0)
        assert bolus == 0.0


class TestValidation:
    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError, match="thresholds"):
            BasalBolusController(basal=1.0, suspend_threshold=100.0,
                                 reduce_threshold=90.0)

    def test_invalid_isf(self):
        with pytest.raises(ValueError):
            BasalBolusController(basal=1.0, isf=-1.0)

    def test_invalid_reading(self):
        """No non-positive reading reaches the controller: glucose-input
        faults clamp to the CGM range's floor."""
        scenarios = [InjectionScenario(FaultSpec(kind, FaultTarget.GLUCOSE,
                                                 2, 20, value), 80.0)
                     for kind, value in ((FaultKind.SUB, 390.0),
                                         (FaultKind.MIN, 0.0),
                                         (FaultKind.TRUNCATE, 0.0),
                                         (FaultKind.SCALE, 0.0))]
        for trace in run_campaign("t1ds2013", ["P01"], scenarios, n_steps=25):
            assert trace.reading.min() == 40.0

    def test_reset_clears_refractory(self, set_lockstep_width):
        """Every run starts with no correction on record, whatever ran
        before it: back-to-back hyperglycemic runs both correct at once."""
        set_lockstep_width(1)
        first, second = run_fault_free("t1ds2013", ["P01"], (250.0, 250.0),
                                       n_steps=5, cache=None)
        assert first.ctrl_bolus[0] > 0
        assert second.ctrl_bolus[0] == first.ctrl_bolus[0]
