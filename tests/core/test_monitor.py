"""Tests for MonitorVerdict and the context-aware monitor."""

import pytest

from repro.controllers import ControlAction
from repro.core import (
    ContextAwareMonitor,
    ContextVector,
    MonitorVerdict,
    NO_ALERT,
    aps_rules,
    cawot_monitor,
    cawt_monitor,
)
from repro.hazards import HazardType


def ctx(bg=150.0, bg_rate=1.0, iob=1.0, iob_rate=-0.01,
        action=ControlAction.DECREASE, rate=0.5, bolus=0.0):
    return ContextVector(t=0.0, bg=bg, bg_rate=bg_rate, iob=iob,
                         iob_rate=iob_rate, rate=rate, bolus=bolus,
                         action=action)


def without_rule(index):
    """CAWOT over every Table I rule but rule *index*: silent on a context
    where only that rule fires."""
    return ContextAwareMonitor(rules=[rule for rule in aps_rules()
                                      if rule.index != index])


class TestVerdict:
    def test_no_alert_constant(self):
        assert not NO_ALERT.alert
        assert NO_ALERT.hazard is None

    def test_alert_requires_hazard(self):
        with pytest.raises(ValueError):
            MonitorVerdict(alert=True)

    def test_alert_with_hazard(self):
        v = MonitorVerdict(alert=True, hazard=HazardType.H1)
        assert v.alert and v.hazard == HazardType.H1


class TestCAWOT:
    def test_alerts_on_rule1_context(self):
        monitor = cawot_monitor()
        verdict = monitor.observe(ctx())
        assert verdict.alert
        assert verdict.hazard == HazardType.H2
        assert not without_rule(1).observe(ctx()).alert

    def test_silent_in_safe_context(self):
        monitor = cawot_monitor()
        verdict = monitor.observe(ctx(bg=120.0, bg_rate=0.0,
                                      action=ControlAction.KEEP, rate=1.0))
        assert not verdict.alert

    def test_low_bg_requires_stop(self):
        monitor = cawot_monitor()
        verdict = monitor.observe(ctx(bg=60.0, bg_rate=-1.0, iob=0.0,
                                      iob_rate=0.0, action=ControlAction.KEEP,
                                      rate=1.0))
        assert verdict.alert
        assert verdict.hazard == HazardType.H1

    def test_name(self):
        assert cawot_monitor().name == "CAWOT"


class TestCAWT:
    def test_learned_threshold_suppresses_false_alarm(self):
        # with a tight beta1, a modest IOB no longer counts as "too low"
        cawot = cawot_monitor()
        cawt = cawt_monitor({"beta1": 0.5})
        context = ctx(iob=1.0)  # IOB 1.0: below default 6, above learned 0.5
        assert cawot.observe(context).alert
        assert not cawt.observe(context).alert

    def test_learned_threshold_still_catches_uca(self):
        cawt = cawt_monitor({"beta1": 0.5})
        assert cawt.observe(ctx(iob=0.2)).alert

    def test_partial_thresholds_keep_defaults_elsewhere(self):
        cawt = cawt_monitor({"beta1": 0.5})
        assert cawt.thresholds["beta21"] == 70.0

    def test_unknown_param_rejected(self):
        with pytest.raises(KeyError, match="unknown rule parameters"):
            cawt_monitor({"nope": 1.0})

    def test_with_thresholds_copy(self):
        base = cawt_monitor({"beta1": 0.5})
        updated = base.with_thresholds({"beta1": 1.5}, name="CAWT2")
        assert base.thresholds["beta1"] == 0.5
        assert updated.thresholds["beta1"] == 1.5
        assert updated.name == "CAWT2"

    def test_multiple_rules_can_trigger(self):
        monitor = cawot_monitor()
        # hyper + stop: rule 9 triggers; keep-insulin rules don't
        context = ctx(bg=200.0, bg_rate=1.0, iob=0.1, iob_rate=-0.01,
                      rate=0.0, action=ControlAction.STOP)
        assert monitor.observe(context).hazard == HazardType.H2
        assert not without_rule(9).observe(context).alert

    def test_rule_subset_monitor(self):
        only_rule10 = [r for r in aps_rules() if r.index == 10]
        monitor = ContextAwareMonitor(rules=only_rule10)
        assert not monitor.observe(ctx()).alert  # rule1 context, not rule10
        assert monitor.observe(ctx(bg=60.0, action=ControlAction.KEEP)).alert
