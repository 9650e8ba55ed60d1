"""Tests for the hazard-mitigation strategies (Algorithm 1)."""

import numpy as np
import pytest

from repro.controllers import ControlAction
from repro.core import FixedMitigator, ProportionalMitigator
from repro.hazards import HazardType
from repro.simulation import ContextBatch

def ctx(bg=150.0, iob=1.0, rate=2.0, bolus=0.5):
    """One cycle's context as a one-row live tick."""
    return ContextBatch.from_tick(
        t=0.0, bg=[bg], bg_rate=[0.0], iob=[iob], iob_rate=[0.0],
        rate=[rate], bolus=[bolus], action=[int(ControlAction.INCREASE)],
        dt=5.0)


def correct(mitigator, hazard, tick):
    """The mitigator's ``(rate, bolus)`` for one row alerted with
    *hazard* (None: silent)."""
    rate, bolus = mitigator.correct_mask(
        np.array([hazard is not None]),
        np.array([0 if hazard is None else int(hazard)]), tick)
    return float(rate[0]), float(bolus[0])


class TestFixedMitigator:
    def test_no_alert_passes_through(self):
        m = FixedMitigator()
        assert correct(m, None, ctx()) == (2.0, 0.5)

    def test_h1_cuts_insulin(self):
        m = FixedMitigator()
        assert correct(m, HazardType.H1, ctx()) == (0.0, 0.0)

    def test_h2_commands_fixed_max(self):
        m = FixedMitigator(max_rate=5.0)
        assert correct(m, HazardType.H2, ctx()) == (5.0, 0.0)

    def test_invalid_max_rate(self):
        with pytest.raises(ValueError):
            FixedMitigator(max_rate=0.0)


class TestProportionalMitigator:
    def test_h1_cuts_insulin(self):
        m = ProportionalMitigator()
        assert correct(m, HazardType.H1, ctx()) == (0.0, 0.0)

    def test_h2_scales_with_excess(self):
        m = ProportionalMitigator(isf=50.0, bg_target=120.0, horizon_h=2.0)
        rate_low, _ = correct(m, HazardType.H2, ctx(bg=200.0, iob=0.0))
        rate_high, _ = correct(m, HazardType.H2, ctx(bg=300.0, iob=0.0))
        assert rate_high > rate_low > 0

    def test_h2_discounts_iob(self):
        m = ProportionalMitigator(isf=50.0, bg_target=120.0)
        with_iob, _ = correct(m, HazardType.H2, ctx(bg=200.0, iob=1.0))
        without, _ = correct(m, HazardType.H2, ctx(bg=200.0, iob=0.0))
        assert with_iob < without

    def test_h2_capped(self):
        m = ProportionalMitigator(max_rate=3.0)
        rate, _ = correct(m, HazardType.H2, ctx(bg=500.0, iob=0.0))
        assert rate == 3.0

    def test_no_negative_dose(self):
        m = ProportionalMitigator()
        rate, _ = correct(m, HazardType.H2, ctx(bg=125.0, iob=5.0))
        assert rate == 0.0

    def test_no_alert_passthrough(self):
        m = ProportionalMitigator()
        assert correct(m, None, ctx()) == (2.0, 0.5)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ProportionalMitigator(isf=0.0)
