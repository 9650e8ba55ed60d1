"""Tests for the OpenAPS (oref0 determine-basal) controller: its tuning and
the engine's batched law (``_OpenAPSBatch``)."""

import numpy as np
import pytest

from repro.controllers import ControlAction, InsulinActivityCurve, \
    OpenAPSController
from repro.fi import FaultKind, FaultSpec, FaultTarget, InjectionScenario
from repro.patients import make_patient
from repro.simulation import run_campaign, run_fault_free
from repro.simulation.vector import _classify, _OpenAPSBatch


def make_controller(**kwargs):
    defaults = dict(basal=1.5, isf=50.0, target=120.0, max_iob=6.0)
    defaults.update(kwargs)
    return _OpenAPSBatch([OpenAPSController(**defaults)])


def decide(controller, glucose, step=0, iob=0.0, activity=0.0):
    """One 5-minute cycle for one row: ``(basal, action)``."""
    rate, bolus = controller.decide(step, 5.0, np.array([glucose]),
                                    np.array([iob]), np.array([activity]))
    action = ControlAction(int(_classify(rate, bolus, controller.basal)[0]))
    return float(rate[0]), action


class TestDecisions:
    def test_at_target_keeps_basal(self):
        basal, action = decide(make_controller(), 120.0)
        assert action == ControlAction.KEEP
        assert basal == pytest.approx(1.5)

    def test_high_glucose_high_temp(self):
        basal, action = decide(make_controller(), 250.0)
        assert action == ControlAction.INCREASE
        assert basal > 1.5

    def test_low_glucose_suspend(self):
        basal, action = decide(make_controller(), 60.0)
        assert action == ControlAction.STOP
        assert basal == 0.0

    def test_moderately_low_glucose_low_temp(self):
        basal, action = decide(make_controller(), 100.0)
        assert basal < 1.5
        assert action in (ControlAction.DECREASE, ControlAction.STOP)

    def test_rate_capped_at_max_basal(self):
        basal, _ = decide(make_controller(max_basal=3.0), 400.0)
        assert basal <= 3.0

    def test_max_iob_blocks_high_temp(self):
        # net IOB well past the cap: insulin_req is clipped to zero
        basal, _ = decide(make_controller(max_iob=1.0), 250.0, iob=3.0)
        assert basal <= 1.5 + 0.01

    def test_invalid_reading_rejected(self):
        """No non-positive reading reaches the controller: glucose-input
        faults clamp to the CGM range's floor."""
        scenarios = [InjectionScenario(FaultSpec(kind, FaultTarget.GLUCOSE,
                                                 2, 20, value), 80.0)
                     for kind, value in ((FaultKind.SUB, 390.0),
                                         (FaultKind.TRUNCATE, 0.0))]
        for trace in run_campaign("glucosym", ["B"], scenarios, n_steps=25):
            assert trace.reading.min() == 40.0

    def test_invalid_profile_rejected(self):
        with pytest.raises(ValueError):
            OpenAPSController(basal=1.0, isf=0.0)
        with pytest.raises(ValueError):
            OpenAPSController(basal=1.0, target=-10)
        with pytest.raises(ValueError):
            OpenAPSController(basal=-1.0)


class TestProjection:
    def test_eventual_bg_reported(self):
        """No IOB, no history: eventualBG == BG, and the high temp adds
        half of ``(eventual - target) / isf`` per hour."""
        basal, _ = decide(make_controller(), 180.0)
        assert basal == pytest.approx(1.5 + (180.0 - 120.0) / 50.0 / 2.0)

    def test_iob_discounts_eventual_bg(self):
        """A 2 U bolus on board drops eventualBG 100 mg/dL below 180:
        under target, so the controller low-temps."""
        curve = InsulinActivityCurve()
        basal, _ = decide(make_controller(), 180.0, step=1,
                          iob=2.0 * curve.iob_fraction(2.5),
                          activity=2.0 * curve.activity(2.5))
        assert basal < 1.5

    def test_rising_glucose_raises_deviation(self):
        rising, flat = make_controller(), make_controller()
        for step, (up, level) in enumerate(((120.0, 140.0), (130.0, 140.0))):
            decide(rising, up, step)
            decide(flat, level, step)
        assert decide(rising, 140.0, 2)[0] > decide(flat, 140.0, 2)[0]

    def test_iob_rate_sign_tracks_delivery(self):
        trace, = run_fault_free("glucosym", ["B"], (250.0,), n_steps=6,
                                cache=None)
        # sustained high temp -> IOB rising
        basal = make_patient("glucosym", "B").basal_rate(120.0)
        assert (trace.cmd_rate > basal).all()
        assert (trace.iob_rate[1:] > 0).all()

    def test_closed_loop_drives_high_bg_down(self):
        """Sustained hyper produces net insulin and brings BG down."""
        trace, = run_fault_free("glucosym", ["B"], (250.0,), n_steps=24,
                                cache=None)
        basal = make_patient("glucosym", "B").basal_rate(120.0)
        assert (trace.delivered_rate - basal).sum() > 3.0
        assert trace.true_bg[-1] < 250.0


class TestReset:
    def test_reset_clears_history(self, set_lockstep_width):
        """A run starts with no IOB and no glucose history, whatever ran
        before it."""
        set_lockstep_width(1)
        hyper, fresh = run_fault_free("glucosym", ["B"], (250.0, 120.0),
                                      n_steps=6, cache=None)
        assert hyper.iob[-1] > 0
        assert fresh.iob[0] == 0.0
        basal = make_patient("glucosym", "B").basal_rate(120.0)
        assert fresh.ctrl_rate[0] == pytest.approx(basal)
