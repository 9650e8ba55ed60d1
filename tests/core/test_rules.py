"""Tests for the Table I APS rules and their STL equivalence."""

import numpy as np
import pytest

from repro.controllers import ControlAction
from repro.core import (ContextAwareMonitor, ContextVector, aps_rules, aps_scs,
                        default_thresholds)
from repro.core.rules import BG_TARGET, IOB_RATE_EPS
from repro.hazards import HazardType
from repro.simulation import ContextBatch
from repro.stl import Trace, satisfaction


def ctx(bg=150.0, bg_rate=1.0, iob=1.0, iob_rate=-0.01,
        action=ControlAction.DECREASE, rate=0.5, bolus=0.0, t=0.0):
    return ContextVector(t=t, bg=bg, bg_rate=bg_rate, iob=iob,
                         iob_rate=iob_rate, rate=rate, bolus=bolus,
                         action=action)


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
        assert RULES[1].violated(ctx(), threshold=2.0)

    def test_no_violation_when_action_differs(self):
        assert not RULES[1].violated(ctx(action=ControlAction.KEEP), 2.0)

    def test_no_violation_below_target(self):
        assert not RULES[1].violated(ctx(bg=100.0), 2.0)

    def test_no_violation_when_bg_falling(self):
        assert not RULES[1].violated(ctx(bg_rate=-1.0), 2.0)

    def test_no_violation_when_iob_rising(self):
        assert not RULES[1].violated(ctx(iob_rate=0.02), 2.0)

    def test_no_violation_when_iob_above_threshold(self):
        assert not RULES[1].violated(ctx(iob=3.0), threshold=2.0)

    def test_threshold_boundary(self):
        assert not RULES[1].violated(ctx(iob=2.0), threshold=2.0)  # strict <


class TestRule6:
    """Rule 6: BG<BGT & BG'<0 & IOB'>0 & IOB>b6 => !u2."""

    def test_violation(self):
        c = ctx(bg=90.0, bg_rate=-1.0, iob=3.0, iob_rate=0.02,
                action=ControlAction.INCREASE)
        assert RULES[6].violated(c, threshold=2.0)

    def test_no_violation_low_iob(self):
        c = ctx(bg=90.0, bg_rate=-1.0, iob=1.0, iob_rate=0.02,
                action=ControlAction.INCREASE)
        assert not RULES[6].violated(c, threshold=2.0)


class TestRule9:
    """Rule 9: BG>BGT & IOB<b9 => !u3 (no rate conditions)."""

    def test_violation_any_rates(self):
        c = ctx(bg=200.0, bg_rate=-5.0, iob=0.1, iob_rate=0.5,
                action=ControlAction.STOP)
        assert RULES[9].violated(c, threshold=1.0)


class TestRule10:
    """Rule 10: BG<b21 => u3 (required action)."""

    def test_violation_when_not_stopping(self):
        c = ctx(bg=60.0, action=ControlAction.KEEP)
        assert RULES[10].violated(c, threshold=70.0)

    def test_satisfied_when_stopping(self):
        c = ctx(bg=60.0, action=ControlAction.STOP)
        assert not RULES[10].violated(c, threshold=70.0)

    def test_not_applicable_above_threshold(self):
        c = ctx(bg=90.0, action=ControlAction.KEEP)
        assert not RULES[10].violated(c, threshold=70.0)


class TestIOBRateEquality:
    def test_zero_band(self):
        rule = RULES[2]  # IOB'=0 case
        base = dict(bg=150.0, bg_rate=1.0, iob=1.0, action=ControlAction.DECREASE)
        assert rule.violated(ctx(iob_rate=0.0, **base), 2.0)
        assert rule.violated(ctx(iob_rate=IOB_RATE_EPS / 2, **base), 2.0)
        assert not rule.violated(ctx(iob_rate=IOB_RATE_EPS * 2, **base), 2.0)

    def test_nonpos_nonneg_bands(self):
        rule11, rule12 = RULES[11], RULES[12]
        c = ctx(bg=150.0, bg_rate=1.0, iob=1.0, iob_rate=0.0,
                action=ControlAction.KEEP)
        assert rule11.violated(c, 2.0)  # IOB'<=0 includes 0
        c = ctx(bg=90.0, bg_rate=-1.0, iob=3.0, iob_rate=0.0,
                action=ControlAction.KEEP)
        assert rule12.violated(c, 2.0)  # IOB'>=0 includes 0


class TestSTLEquivalence:
    """The fast pointwise path must agree with the STL semantics."""

    @pytest.mark.parametrize("index", sorted(RULES))
    def test_violation_matches_stl(self, index):
        rule = RULES[index]
        rng = np.random.default_rng(index)
        n = 40
        actions = rng.integers(1, 5, size=n)
        channels = {
            "BG": rng.uniform(60, 200, size=n),
            "BG'": rng.uniform(-2, 2, size=n),
            "IOB": rng.uniform(-1, 5, size=n),
            "IOB'": rng.uniform(-0.05, 0.05, size=n),
        }
        for act in ControlAction:
            channels[act.channel] = (actions == int(act)).astype(float)
        trace = Trace(channels, dt=5.0)
        threshold = 2.0 if rule.mu_channel == "IOB" else 80.0
        env = {rule.param: threshold}
        body = rule.ucas_entry().to_stl().child  # the implication, pointwise
        stl_ok = satisfaction(body, trace, env=env)
        for t in range(n):
            c = ContextVector(t=t * 5.0, bg=channels["BG"][t],
                              bg_rate=channels["BG'"][t],
                              iob=channels["IOB"][t],
                              iob_rate=channels["IOB'"][t], rate=1.0,
                              bolus=0.0, action=ControlAction(actions[t]))
            assert rule.violated(c, threshold) == (not stl_ok[t]), (
                f"rule {index} mismatch at sample {t}")


class TestBatchedBoundaryParity:
    """The batched monitor evaluates the rules' STL bodies; on every
    boundary of Table I (BG = BGT, BG' = 0, IOB' at and around the
    +-IOB_RATE_EPS band edges, mu = threshold) its verdicts must equal
    the scalar :meth:`APSRule.violated` for each rule alone."""

    THRESHOLDS = {rule.param: 70.0 if rule.mu_channel == "BG" else 2.0
                  for rule in aps_rules()}

    @staticmethod
    def grid():
        eps = IOB_RATE_EPS
        axes = np.meshgrid(
            [BG_TARGET - 1.0, BG_TARGET, BG_TARGET + 1.0, 69.0, 70.0, 71.0],
            [-1.0, 0.0, 1.0],
            [1.5, 2.0, 2.5],
            [0.0, eps, -eps, 2 * eps, -2 * eps],
            [int(act) for act in ControlAction], indexing="ij")
        return [axis.ravel() for axis in axes]

    @pytest.mark.parametrize("index", sorted(RULES))
    def test_observe_batch_matches_scalar_on_boundaries(self, index):
        rule = RULES[index]
        bg, bg_rate, iob, iob_rate, action = self.grid()
        batch = ContextBatch.from_tick(
            t=0.0, bg=bg, bg_rate=bg_rate, iob=iob, iob_rate=iob_rate,
            rate=np.ones_like(bg), bolus=np.zeros_like(bg), action=action,
            dt=5.0)
        monitor = ContextAwareMonitor(thresholds=self.THRESHOLDS,
                                      rules=(rule,))
        alerts, hazards = monitor.observe_batch(batch)
        threshold = self.THRESHOLDS[rule.param]
        scalar = [rule.violated(next(batch.iter_column(b)), threshold)
                  for b in range(len(bg))]
        assert any(scalar) and not all(scalar)
        np.testing.assert_array_equal(alerts[0], scalar)
        np.testing.assert_array_equal(hazards[0],
                                      np.where(scalar, int(rule.hazard), 0))


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
