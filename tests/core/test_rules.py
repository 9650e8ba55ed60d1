"""Tests for the Table I APS rules and their STL encoding.

The hand-written expectations check each rule's pointwise
``violation_body`` on one-cycle traces.  The boundary grid below is the
rules' half of ``tests/simulation/data/golden_replay.json``: each rule's
violation flags on it were recorded through an earlier scalar
implementation of Table I, and both the STL formula and the batched
monitor are held to them.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.controllers import ControlAction
from repro.core import (ContextAwareMonitor, ContextVector, aps_rules, aps_scs,
                        default_thresholds)
from repro.core.rules import BG_TARGET, IOB_RATE_EPS
from repro.hazards import HazardType
from repro.simulation import ContextBatch
from repro.stl import Trace, satisfaction

GOLDEN = json.loads((Path(__file__).parents[1] / "simulation" / "data"
                     / "golden_replay.json").read_text())


def ctx(bg=150.0, bg_rate=1.0, iob=1.0, iob_rate=-0.01,
        action=ControlAction.DECREASE, rate=0.5, bolus=0.0, t=0.0):
    return ContextVector(t=t, bg=bg, bg_rate=bg_rate, iob=iob,
                         iob_rate=iob_rate, rate=rate, bolus=bolus,
                         action=action)


def violated(rule, context, threshold, bg_target=BG_TARGET):
    """*rule*'s ``violation_body`` on the one-cycle trace of *context*,
    with the rule's threshold at *threshold*."""
    trace = Trace({name: [value] for name, value
                   in context.channels().items()}, dt=5.0)
    return bool(satisfaction(rule.violation_body(bg_target), trace,
                             {rule.param: threshold})[0])


RULES = {rule.index: rule for rule in aps_rules()}


class TestRuleTable:
    def test_twelve_rules(self):
        assert len(aps_rules()) == 12
        assert sorted(RULES) == list(range(1, 13))

    def test_params_unique(self):
        params = [r.param for r in aps_rules()]
        assert len(set(params)) == 12

    def test_hazard_assignment_matches_table1(self):
        h2_rules = {1, 2, 3, 4, 5, 9, 11}
        for idx, rule in RULES.items():
            expected = HazardType.H2 if idx in h2_rules else HazardType.H1
            assert rule.hazard == expected, f"rule {idx}"

    def test_action_assignment_matches_table1(self):
        assert all(RULES[i].action == ControlAction.DECREASE for i in (1, 2, 3, 4, 5))
        assert all(RULES[i].action == ControlAction.INCREASE for i in (6, 7, 8))
        assert RULES[9].action == ControlAction.STOP
        assert RULES[10].action == ControlAction.STOP and RULES[10].required
        assert all(RULES[i].action == ControlAction.KEEP for i in (11, 12))

    def test_default_thresholds_cover_all_params(self):
        defaults = default_thresholds()
        assert set(defaults) == {r.param for r in aps_rules()}
        assert defaults["beta21"] == 70.0


class TestRule1:
    """Rule 1: BG>BGT & BG'>0 & IOB'<0 & IOB<b1 => !u1."""

    def test_violation(self):
        assert violated(RULES[1], ctx(), threshold=2.0)

    def test_no_violation_when_action_differs(self):
        assert not violated(RULES[1], ctx(action=ControlAction.KEEP), 2.0)

    def test_no_violation_below_target(self):
        assert not violated(RULES[1], ctx(bg=100.0), 2.0)

    def test_no_violation_when_bg_falling(self):
        assert not violated(RULES[1], ctx(bg_rate=-1.0), 2.0)

    def test_no_violation_when_iob_rising(self):
        assert not violated(RULES[1], ctx(iob_rate=0.02), 2.0)

    def test_no_violation_when_iob_above_threshold(self):
        assert not violated(RULES[1], ctx(iob=3.0), threshold=2.0)

    def test_threshold_boundary(self):
        assert not violated(RULES[1], ctx(iob=2.0), threshold=2.0)  # strict <

    def test_bg_target_moves_the_boundary(self):
        assert violated(RULES[1], ctx(bg=130.0), 2.0)
        assert not violated(RULES[1], ctx(bg=130.0), 2.0, bg_target=140.0)


class TestRule6:
    """Rule 6: BG<BGT & BG'<0 & IOB'>0 & IOB>b6 => !u2."""

    def test_violation(self):
        c = ctx(bg=90.0, bg_rate=-1.0, iob=3.0, iob_rate=0.02,
                action=ControlAction.INCREASE)
        assert violated(RULES[6], c, threshold=2.0)

    def test_no_violation_low_iob(self):
        c = ctx(bg=90.0, bg_rate=-1.0, iob=1.0, iob_rate=0.02,
                action=ControlAction.INCREASE)
        assert not violated(RULES[6], c, threshold=2.0)


class TestRule9:
    """Rule 9: BG>BGT & IOB<b9 => !u3 (no rate conditions)."""

    def test_violation_any_rates(self):
        c = ctx(bg=200.0, bg_rate=-5.0, iob=0.1, iob_rate=0.5,
                action=ControlAction.STOP)
        assert violated(RULES[9], c, threshold=1.0)


class TestRule10:
    """Rule 10: BG<b21 => u3 (required action)."""

    def test_violation_when_not_stopping(self):
        c = ctx(bg=60.0, action=ControlAction.KEEP)
        assert violated(RULES[10], c, threshold=70.0)

    def test_satisfied_when_stopping(self):
        c = ctx(bg=60.0, action=ControlAction.STOP)
        assert not violated(RULES[10], c, threshold=70.0)

    def test_not_applicable_above_threshold(self):
        c = ctx(bg=90.0, action=ControlAction.KEEP)
        assert not violated(RULES[10], c, threshold=70.0)


class TestIOBRateEquality:
    def test_zero_band(self):
        rule = RULES[2]  # IOB'=0 case
        base = dict(bg=150.0, bg_rate=1.0, iob=1.0, action=ControlAction.DECREASE)
        assert violated(rule, ctx(iob_rate=0.0, **base), 2.0)
        assert violated(rule, ctx(iob_rate=IOB_RATE_EPS / 2, **base), 2.0)
        assert not violated(rule, ctx(iob_rate=IOB_RATE_EPS * 2, **base), 2.0)

    def test_nonpos_nonneg_bands(self):
        rule11, rule12 = RULES[11], RULES[12]
        c = ctx(bg=150.0, bg_rate=1.0, iob=1.0, iob_rate=0.0,
                action=ControlAction.KEEP)
        assert violated(rule11, c, 2.0)  # IOB'<=0 includes 0
        c = ctx(bg=90.0, bg_rate=-1.0, iob=3.0, iob_rate=0.0,
                action=ControlAction.KEEP)
        assert violated(rule12, c, 2.0)  # IOB'>=0 includes 0


def boundary_grid():
    """The 1,080 contexts on every Table I boundary (BG = BGT, BG' = 0,
    IOB' at and around the +-IOB_RATE_EPS band edges, mu = threshold),
    as the channel vectors of one live tick."""
    eps = IOB_RATE_EPS
    axes = np.meshgrid(
        [BG_TARGET - 1.0, BG_TARGET, BG_TARGET + 1.0, 69.0, 70.0, 71.0],
        [-1.0, 0.0, 1.0],
        [1.5, 2.0, 2.5],
        [0.0, eps, -eps, 2 * eps, -2 * eps],
        [int(act) for act in ControlAction], indexing="ij")
    bg, bg_rate, iob, iob_rate, action = [axis.ravel() for axis in axes]
    return ContextBatch.from_tick(
        t=0.0, bg=bg, bg_rate=bg_rate, iob=iob, iob_rate=iob_rate,
        rate=np.ones_like(bg), bolus=np.zeros_like(bg), action=action,
        dt=5.0)


def golden_violations(rule):
    """The recorded violation flags of *rule* on :func:`boundary_grid`."""
    n = GOLDEN["n_contexts"]
    bits = np.unpackbits(np.frombuffer(
        bytes.fromhex(GOLDEN["rules"][str(rule.index)]), dtype=np.uint8))
    return bits[:n].astype(bool)


class TestSTLEquivalence:
    """The full Eq. 1 formula holds exactly where the recorded scalar
    check found no violation."""

    @pytest.mark.parametrize("index", sorted(RULES))
    def test_violation_matches_stl(self, index):
        rule = RULES[index]
        trace = boundary_grid().to_stl_trace()
        body = rule.ucas_entry().to_stl().child  # the implication, pointwise
        stl_ok = satisfaction(body, trace, env=GOLDEN["rule_thresholds"])
        np.testing.assert_array_equal(~stl_ok[0], golden_violations(rule))


class TestBatchedBoundaryParity:
    """The batched monitor over each rule alone gives the recorded
    verdicts on every boundary of Table I."""

    @pytest.mark.parametrize("index", sorted(RULES))
    def test_observe_batch_matches_golden_on_boundaries(self, index):
        rule = RULES[index]
        monitor = ContextAwareMonitor(thresholds=GOLDEN["rule_thresholds"],
                                      rules=(rule,))
        alerts, hazards = monitor.observe_batch(boundary_grid())
        expected = golden_violations(rule)
        assert expected.any() and not expected.all()
        np.testing.assert_array_equal(alerts[0], expected)
        np.testing.assert_array_equal(hazards[0],
                                      np.where(expected, int(rule.hazard), 0))


class TestSCS:
    def test_scs_has_12_entries(self):
        scs = aps_scs()
        assert len(scs.ucas) == 12

    def test_scs_parameters(self):
        params = aps_scs().parameters()
        assert len(params) == 12
        assert "beta1" in params and "beta21" in params

    def test_entries_for_hazard(self):
        scs = aps_scs()
        assert len(scs.entries_for_hazard(HazardType.H2)) == 7
        assert len(scs.entries_for_hazard(HazardType.H1)) == 5

    def test_entries_for_action(self):
        scs = aps_scs()
        assert len(scs.entries_for_action(ControlAction.DECREASE)) == 5

    def test_monitor_formulas_are_globally(self):
        from repro.stl import Globally
        formulas = aps_scs().monitor_formulas()
        assert len(formulas) == 12
        assert all(isinstance(f, Globally) for f in formulas.values())

    def test_custom_bg_target_propagates(self):
        scs = aps_scs(bg_target=140.0)
        text = str(scs.ucas[0].context)
        assert "140" in text
