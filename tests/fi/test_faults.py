"""Tests for fault models (Table II)."""

import pytest

from repro.fi import FaultKind, FaultSpec, FaultTarget, VARIABLE_RANGES
from tests.conftest import FaultProbe


def spec(kind, target=FaultTarget.GLUCOSE, value=0.0, start=10, dur=6):
    return FaultSpec(kind=kind, target=target, start_step=start,
                     duration_steps=dur, value=value)


def apply(f, value, held=None):
    """The engine's corruption of *value* on the fault's first active
    cycle, after a clean cycle that latched *held* (if any)."""
    probe = FaultProbe(f)
    if held is not None:
        probe.corrupt(held, f.start_step - 1)
    return probe.corrupt(value, f.start_step)


class TestFaultSpec:
    def test_active_window(self):
        probe = FaultProbe(spec(FaultKind.MAX, start=10, dur=6))
        assert probe.corrupt(120.0, 9) == 120.0
        assert probe.corrupt(120.0, 10) == 400.0
        assert probe.corrupt(120.0, 15) == 400.0
        assert probe.corrupt(120.0, 16) == 120.0

    def test_end_step(self):
        assert spec(FaultKind.MAX, start=10, dur=6).end_step == 16

    def test_invalid_start(self):
        with pytest.raises(ValueError):
            spec(FaultKind.MAX, start=-1)

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            spec(FaultKind.MAX, dur=0)

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            spec(FaultKind.SCALE, value=-0.5)


class TestApply:
    def test_truncate_rate_to_zero(self):
        f = spec(FaultKind.TRUNCATE, FaultTarget.RATE)
        assert apply(f, 2.0, None) == 0.0

    def test_truncate_glucose_clamps_to_range_floor(self):
        """A zeroed CGM value is clamped into the acceptable range."""
        f = spec(FaultKind.TRUNCATE, FaultTarget.GLUCOSE)
        assert apply(f, 120.0, None) == VARIABLE_RANGES[FaultTarget.GLUCOSE][0]

    def test_hold_freezes_pre_fault_value(self):
        f = spec(FaultKind.HOLD)
        assert apply(f, 200.0, held=120.0) == 120.0

    def test_hold_without_history_passes_through(self):
        f = spec(FaultKind.HOLD)
        assert apply(f, 200.0, None) == 200.0

    def test_max_saturates(self):
        f = spec(FaultKind.MAX, FaultTarget.GLUCOSE)
        assert apply(f, 120.0, None) == 400.0
        f = spec(FaultKind.MAX, FaultTarget.RATE)
        assert apply(f, 1.0, None) == 10.0

    def test_min_saturates(self):
        f = spec(FaultKind.MIN, FaultTarget.GLUCOSE)
        assert apply(f, 120.0, None) == 40.0

    def test_add_offsets_and_clamps(self):
        f = spec(FaultKind.ADD, FaultTarget.GLUCOSE, value=75.0)
        assert apply(f, 120.0, None) == 195.0
        assert apply(f, 380.0, None) == 400.0  # clamped

    def test_sub_offsets_and_clamps(self):
        f = spec(FaultKind.SUB, FaultTarget.GLUCOSE, value=75.0)
        assert apply(f, 120.0, None) == 45.0
        assert apply(f, 60.0, None) == 40.0  # clamped

    def test_scale_halves(self):
        f = spec(FaultKind.SCALE, FaultTarget.RATE, value=0.5)
        assert apply(f, 2.0, None) == 1.0

    def test_result_always_in_range(self):
        for kind in FaultKind:
            for target in FaultTarget:
                f = spec(kind, target, value=0.5 if kind is FaultKind.SCALE else 75.0)
                lo, hi = VARIABLE_RANGES[target]
                for value in (lo, (lo + hi) / 2, hi):
                    assert lo <= apply(f, value, held=hi) <= hi


class TestLabels:
    def test_plain_label(self):
        assert spec(FaultKind.MAX, FaultTarget.RATE).label == "max_rate"

    def test_dec_label_for_halving_scale(self):
        f = spec(FaultKind.SCALE, FaultTarget.GLUCOSE, value=0.5)
        assert f.label == "dec_glucose"

    def test_scale_up_keeps_scale_label(self):
        f = spec(FaultKind.SCALE, FaultTarget.GLUCOSE, value=2.0)
        assert f.label == "scale_glucose"
