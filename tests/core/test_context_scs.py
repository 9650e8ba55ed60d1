"""Tests for ContextVector and the generic SCS framework."""

import pytest

from repro.controllers import ControlAction
from repro.core import ContextVector, HMSEntry, SafetyContextSpec, UCASEntry
from repro.hazards import HazardType
from repro.stl import Globally, Implies, Not, Signal, Since, parse


def ctx(action=ControlAction.KEEP):
    return ContextVector(t=10.0, bg=150.0, bg_rate=0.5, iob=1.2,
                         iob_rate=-0.01, rate=1.0, bolus=0.0, action=action)


class TestContextVector:
    def test_channels_include_mu_and_actions(self):
        values = ctx().channels()
        assert values["BG"] == 150.0
        assert values["BG'"] == 0.5
        assert values["IOB"] == 1.2
        assert values["IOB'"] == -0.01
        assert values["u4"] == 1.0
        assert values["u1"] == 0.0

    def test_one_hot_action(self):
        values = ctx(action=ControlAction.STOP).channels()
        assert values["u3"] == 1.0
        assert sum(values[f"u{i}"] for i in range(1, 5)) == 1.0

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ctx().bg = 1.0


class TestUCASEntry:
    def make_entry(self, required=False):
        return UCASEntry(name="test", context=parse("BG > 180 & IOB < beta1"),
                         action=ControlAction.DECREASE, hazard=HazardType.H2,
                         required=required)

    def test_to_stl_shape(self):
        stl = self.make_entry().to_stl(0, 720)
        assert isinstance(stl, Globally)
        assert isinstance(stl.child, Implies)
        assert isinstance(stl.child.consequent, Not)

    def test_required_consequent_positive(self):
        stl = self.make_entry(required=True).to_stl()
        assert isinstance(stl.child.consequent, Signal)

    def test_violation_body(self):
        body = self.make_entry().violation_body()
        # context AND the forbidden action
        assert "u1" in str(body)

    def test_parameters(self):
        assert self.make_entry().parameters() == frozenset({"beta1"})


class TestHMSEntry:
    def make_entry(self, ts=15.0):
        return HMSEntry(name="mitigate-low", context=parse("BG < 70"),
                        safe_actions=(ControlAction.STOP,), ts=ts)

    def test_to_stl_uses_since(self):
        stl = self.make_entry().to_stl()
        assert isinstance(stl, Globally)
        assert isinstance(stl.child, Since)

    def test_eq2_semantics_on_trace(self):
        """F[0,ts](u3) S (BG<70) holds when stop follows entering context."""
        from repro.stl import Trace, satisfaction
        stl = self.make_entry(ts=10.0).to_stl()
        trace = Trace({
            "BG": [100.0, 60.0, 58.0, 57.0],
            "u3": [0.0, 0.0, 1.0, 0.0],
        }, dt=5.0)
        out = satisfaction(stl.child, trace)
        assert bool(out[1]) and bool(out[2])

    def test_validation(self):
        with pytest.raises(ValueError, match="safe action"):
            HMSEntry(name="x", context=parse("BG < 70"), safe_actions=(), ts=5)
        with pytest.raises(ValueError, match="ts"):
            HMSEntry(name="x", context=parse("BG < 70"),
                     safe_actions=(ControlAction.STOP,), ts=-1)

    def test_multiple_safe_actions_or(self):
        entry = HMSEntry(name="x", context=parse("BG < 70"),
                         safe_actions=(ControlAction.STOP, ControlAction.DECREASE),
                         ts=10)
        assert "u3" in str(entry.to_stl()) and "u1" in str(entry.to_stl())


class TestSafetyContextSpec:
    def test_parameters_merge(self):
        spec = SafetyContextSpec(ucas=(
            UCASEntry("a", parse("IOB < beta1"), ControlAction.DECREASE,
                      HazardType.H2),
            UCASEntry("b", parse("IOB > beta2"), ControlAction.INCREASE,
                      HazardType.H1),
        ))
        assert set(spec.parameters()) == {"beta1", "beta2"}

    def test_empty_spec(self):
        spec = SafetyContextSpec()
        assert spec.parameters() == {}
        assert spec.monitor_formulas() == {}
