"""Tests for the engine's fault masks, one row at a time."""

from repro.fi import FaultKind, FaultSpec, FaultTarget, InjectionScenario
from repro.simulation import run_campaign
from tests.conftest import FaultProbe


def injector(kind, target, start=5, dur=3, value=0.0):
    return FaultProbe(FaultSpec(kind=kind, target=target, start_step=start,
                                duration_steps=dur, value=value))


class TestReadings:
    def test_inactive_steps_pass_through(self):
        inj = injector(FaultKind.MAX, FaultTarget.GLUCOSE)
        assert inj.corrupt_reading(120.0, 0) == 120.0
        assert inj.corrupt_reading(120.0, 99) == 120.0

    def test_active_steps_corrupt(self):
        inj = injector(FaultKind.MAX, FaultTarget.GLUCOSE)
        assert inj.corrupt_reading(120.0, 5) == 400.0

    def test_rate_fault_leaves_reading_alone(self):
        inj = injector(FaultKind.MAX, FaultTarget.RATE)
        assert inj.corrupt_reading(120.0, 5) == 120.0

    def test_hold_uses_last_pre_fault_reading(self):
        inj = injector(FaultKind.HOLD, FaultTarget.GLUCOSE)
        inj.corrupt_reading(111.0, 4)   # last clean sample
        assert inj.corrupt_reading(200.0, 5) == 111.0
        assert inj.corrupt_reading(250.0, 6) == 111.0

    def test_activation_recorded(self):
        """A closed-loop run's reading departs from the clean CGM exactly
        on the fault's start step."""
        trace, = run_campaign("glucosym", ["B"], [InjectionScenario(
            FaultSpec(FaultKind.MAX, FaultTarget.GLUCOSE, 5, 3), 120.0)],
            n_steps=10)
        changed = (trace.reading != trace.cgm).nonzero()[0]
        assert changed.tolist() == [5, 6, 7] and trace.fault_step == 5


class TestCommands:
    def test_rate_corruption(self):
        inj = injector(FaultKind.TRUNCATE, FaultTarget.RATE)
        rate, bolus = inj.corrupt_command(2.0, 0.5, 5)
        assert rate == 0.0
        assert bolus == 0.5  # untouched

    def test_bolus_corruption(self):
        inj = injector(FaultKind.MAX, FaultTarget.BOLUS)
        rate, bolus = inj.corrupt_command(2.0, 0.5, 5)
        assert rate == 2.0
        assert bolus == 10.0

    def test_glucose_fault_leaves_command_alone(self):
        inj = injector(FaultKind.MAX, FaultTarget.GLUCOSE)
        assert inj.corrupt_command(2.0, 0.0, 5) == (2.0, 0.0)

    def test_hold_rate(self):
        inj = injector(FaultKind.HOLD, FaultTarget.RATE)
        inj.corrupt_command(1.5, 0.0, 4)
        rate, _ = inj.corrupt_command(0.0, 0.0, 5)
        assert rate == 1.5

    def test_add_rate(self):
        inj = injector(FaultKind.ADD, FaultTarget.RATE, value=2.0)
        rate, _ = inj.corrupt_command(1.0, 0.0, 5)
        assert rate == 3.0


class TestReset:
    def test_reset_clears_held_state(self):
        """Every run starts with empty HOLD registers: a window that opens
        on the first cycle passes the value through."""
        inj = injector(FaultKind.HOLD, FaultTarget.GLUCOSE, start=0)
        assert inj.corrupt_reading(222.0, 0) == 222.0
        assert inj.corrupt_reading(250.0, 1) == 250.0

    def test_fault_step_property(self):
        trace, = run_campaign("glucosym", ["B"], [InjectionScenario(
            FaultSpec(FaultKind.MAX, FaultTarget.RATE, 7, 3), 120.0)],
            n_steps=2)
        assert trace.fault_step == 7
