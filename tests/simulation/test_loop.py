"""Tests for the closed loop's behaviour, one run at a time.

Each scenario is a one-scenario ``run_campaign``/``run_fault_free`` call
through the lock-step engine (module fixtures batch the shared ones).
"""

import numpy as np
import pytest

from repro.core import FixedMitigator, cawot_monitor
from repro.fi import FaultKind, FaultSpec, FaultTarget, InjectionScenario
from repro.hazards import HazardType
from repro.simulation import run_campaign, run_fault_free

OVERDOSE = InjectionScenario(FaultSpec(FaultKind.MAX, FaultTarget.RATE, 20, 18),
                             init_glucose=120.0)


@pytest.fixture(scope="module")
def fault_free_trace():
    return run_fault_free("glucosym", ["B"], (120.0,), n_steps=60,
                          cache=None)[0]


@pytest.fixture(scope="module")
def unmonitored():
    """Patient B from 120 mg/dL: the rate overdose, a maxed glucose input
    and a held glucose input."""
    overdose, maxed, held = run_campaign("glucosym", ["B"], [
        OVERDOSE,
        InjectionScenario(FaultSpec(FaultKind.MAX, FaultTarget.GLUCOSE,
                                    10, 12), init_glucose=120.0),
        InjectionScenario(FaultSpec(FaultKind.HOLD, FaultTarget.GLUCOSE,
                                    10, 6), init_glucose=120.0)])
    return {"overdose": overdose, "maxed": maxed, "held": held}


@pytest.fixture(scope="module")
def monitored_overdose():
    return run_campaign("glucosym", ["B"], [OVERDOSE],
                        monitor_factory=lambda pid: cawot_monitor())[0]


class TestFaultFree:
    def test_trace_length(self, fault_free_trace):
        assert len(fault_free_trace) == 60

    def test_time_axis(self, fault_free_trace):
        np.testing.assert_allclose(np.diff(fault_free_trace.t), 5.0)

    def test_glucose_stays_euglycemic(self, fault_free_trace):
        assert fault_free_trace.true_bg.min() > 70
        assert fault_free_trace.true_bg.max() < 250

    def test_not_hazardous(self, fault_free_trace):
        assert not fault_free_trace.hazardous

    def test_no_fault_metadata(self, fault_free_trace):
        assert fault_free_trace.fault is None
        assert fault_free_trace.fault_step is None
        assert fault_free_trace.time_to_hazard() is None

    def test_commands_equal_controller_output_without_fi(self, fault_free_trace):
        np.testing.assert_allclose(fault_free_trace.cmd_rate,
                                   fault_free_trace.ctrl_rate)

    def test_delivered_quantized_by_pump(self, fault_free_trace):
        deliveries = fault_free_trace.delivered_rate
        steps = deliveries / 0.05
        np.testing.assert_allclose(steps, np.round(steps), atol=1e-6)

    def test_net_iob_near_zero_under_basal(self, fault_free_trace):
        """Net IOB (above scheduled basal) stays ~0 in steady operation."""
        assert abs(fault_free_trace.iob[12:]).max() < 0.5


class TestFaultInjection:
    def test_overdose_creates_h1_hazard(self, unmonitored):
        trace = unmonitored["overdose"]
        assert trace.hazardous
        assert trace.hazard_label.first_type == HazardType.H1

    def test_tth_positive_for_injected_hazard(self, unmonitored):
        assert unmonitored["overdose"].time_to_hazard() > 0

    def test_fault_corrupts_reading_channel_only(self, unmonitored):
        trace = unmonitored["maxed"]
        active = slice(10, 22)
        assert (trace.reading[active] == 400.0).all()
        # the monitor's CGM view stays clean
        assert (trace.cgm[active] < 400.0).all()

    def test_plant_unaffected_directly_by_input_fault(self, unmonitored):
        """A held-glucose fault changes dosing, not the plant directly."""
        trace = unmonitored["held"]
        np.testing.assert_allclose(trace.true_bg[:11], trace.cgm[:11], atol=0.5)


class TestMonitorIntegration:
    def test_cawot_alerts_on_overdose(self, monitored_overdose):
        assert monitored_overdose.alert.any()
        assert monitored_overdose.reaction_time() is not None

    def test_alert_hazard_type_recorded(self, monitored_overdose):
        trace = monitored_overdose
        alert_types = set(trace.alert_hazard[trace.alert.astype(bool)])
        assert int(HazardType.H1) in alert_types

    def test_monitor_without_mitigator_does_not_change_delivery(
            self, unmonitored, monitored_overdose):
        np.testing.assert_allclose(unmonitored["overdose"].delivered_rate,
                                   monitored_overdose.delivered_rate)

    def test_mitigation_changes_delivery_and_reduces_hazard(self,
                                                            unmonitored):
        mitigated = run_campaign("glucosym", ["B"], [OVERDOSE],
                                 monitor_factory=lambda pid: cawot_monitor(),
                                 mitigator=FixedMitigator(max_rate=5.0))[0]
        assert mitigated.mitigated.any()
        # H1 mitigation cuts insulin: min BG must improve
        assert mitigated.true_bg.min() > unmonitored["overdose"].true_bg.min()

    def test_to_stl_trace_channels(self):
        trace = run_fault_free("glucosym", ["B"], (120.0,), n_steps=30,
                               monitor_factory=lambda pid: cawot_monitor())[0]
        stl_trace = trace.to_stl_trace()
        for name in ("BG", "BG'", "IOB", "IOB'", "u1", "u2", "u3", "u4"):
            assert name in stl_trace

    def test_action_one_hot_in_stl_trace(self, fault_free_trace):
        stl_trace = fault_free_trace.to_stl_trace()
        one_hot_sum = sum(stl_trace[f"u{i}"] for i in range(1, 5))
        np.testing.assert_allclose(one_hot_sum, 1.0)


class TestBothPlatforms:
    @pytest.mark.parametrize("platform,pid", [("glucosym", "A"),
                                              ("t1ds2013", "P01")])
    def test_platform_runs(self, platform, pid):
        trace, = run_fault_free(platform, [pid], (140.0,), n_steps=40,
                                cache=None)
        assert len(trace) == 40
        assert trace.platform == platform
        assert trace.patient_id == pid

    def test_determinism_across_runs(self):
        spec = FaultSpec(FaultKind.SUB, FaultTarget.GLUCOSE, 10, 12, value=75.0)
        scenario = InjectionScenario(spec, init_glucose=160.0)
        first, second = run_campaign("glucosym", ["C"], [scenario, scenario],
                                     n_steps=50)
        np.testing.assert_array_equal(first.true_bg, second.true_bg)
        np.testing.assert_array_equal(first.action, second.action)
