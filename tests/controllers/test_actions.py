"""Tests for the control-action taxonomy (u1..u4) and the engine's
classification of commands into it."""

import numpy as np

from repro.controllers import ControlAction
from repro.simulation.vector import _classify


def classify(rate, bolus, reference):
    return ControlAction(int(_classify(np.array([rate]), np.array([bolus]),
                                       np.array([reference]))[0]))


class TestControlAction:
    def test_channel_names(self):
        assert ControlAction.DECREASE.channel == "u1"
        assert ControlAction.INCREASE.channel == "u2"
        assert ControlAction.STOP.channel == "u3"
        assert ControlAction.KEEP.channel == "u4"

    def test_channels_tuple(self):
        assert ControlAction.channels() == ("u1", "u2", "u3", "u4")

    def test_int_values_match_paper(self):
        assert int(ControlAction.DECREASE) == 1
        assert int(ControlAction.KEEP) == 4


class TestClassify:
    def test_stop(self):
        assert classify(0.0, 0.0, 1.0) == ControlAction.STOP

    def test_decrease(self):
        assert classify(0.5, 0.0, 1.0) == ControlAction.DECREASE

    def test_increase(self):
        assert classify(2.0, 0.0, 1.0) == ControlAction.INCREASE

    def test_keep(self):
        assert classify(1.0, 0.0, 1.0) == ControlAction.KEEP

    def test_keep_within_tolerance(self):
        assert classify(1.005, 0.0, 1.0) == ControlAction.KEEP

    def test_bolus_counts_as_increase(self):
        assert classify(1.0, 0.5, 1.0) == ControlAction.INCREASE

    def test_bolus_overrides_stop(self):
        assert classify(0.0, 1.0, 1.0) == ControlAction.INCREASE

    def test_tiny_rate_is_stop_not_decrease(self):
        assert classify(0.005, 0.0, 1.0) == ControlAction.STOP
