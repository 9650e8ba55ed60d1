"""Unit tests for repro.stl.signals.Trace."""

import numpy as np
import pytest

from repro.stl import Trace


def make_trace(**channels):
    return Trace(channels, dt=5.0)


class TestConstruction:
    def test_basic_channels(self):
        tr = make_trace(BG=[100, 110, 120], IOB=[1.0, 1.5, 2.0])
        assert len(tr) == 3
        assert set(tr.names) == {"BG", "IOB"}
        np.testing.assert_allclose(tr["BG"], [100, 110, 120])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="length"):
            Trace({"a": [1, 2, 3], "b": [1, 2]})

    def test_empty_channel_mapping_rejected(self):
        with pytest.raises(ValueError, match="at least one channel"):
            Trace({})

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError, match="dt"):
            Trace({"a": [1.0]}, dt=0.0)

    def test_batched_channels_share_one_shape(self):
        tr = Trace({"a": np.zeros((3, 2)), "b": np.ones((3, 2))})
        assert len(tr) == 3 and tr.shape == (3, 2)
        with pytest.raises(ValueError, match="shape"):
            Trace({"a": np.zeros((3, 2)), "b": np.zeros((3, 4))})
        with pytest.raises(ValueError, match="shape"):
            Trace({"a": np.zeros((3, 2)), "b": np.zeros(3)})
        with pytest.raises(ValueError, match="time axis"):
            Trace({"a": 1.0})

    def test_missing_channel_raises_keyerror_with_names(self):
        tr = make_trace(BG=[100.0])
        with pytest.raises(KeyError, match="BG"):
            tr.channel("nope")


class TestTimeAxis:
    def test_times_respect_dt_and_t0(self):
        tr = Trace({"a": [0, 0, 0]}, dt=5.0, t0=10.0)
        np.testing.assert_allclose(tr.times, [10, 15, 20])

    def test_duration(self):
        tr = Trace({"a": np.zeros(150)}, dt=5.0)
        assert tr.duration == pytest.approx(149 * 5.0)

    def test_duration_single_sample(self):
        tr = Trace({"a": [1.0]}, dt=5.0)
        assert tr.duration == 0.0

    def test_steps_converts_minutes(self):
        tr = make_trace(a=np.zeros(5))
        assert tr.steps(25.0) == 5
        assert tr.steps(0.0) == 0

    def test_steps_rejects_non_multiple(self):
        tr = make_trace(a=np.zeros(5))
        with pytest.raises(ValueError, match="multiple"):
            tr.steps(7.0)


class TestDerivedChannels:
    def test_with_channel_replaces(self):
        tr = make_trace(a=[1.0, 2.0])
        tr2 = tr.with_channel("a", [5.0, 6.0])
        np.testing.assert_allclose(tr2["a"], [5.0, 6.0])
        np.testing.assert_allclose(tr["a"], [1.0, 2.0])  # original untouched

    def test_with_derivative_backward_difference(self):
        tr = make_trace(BG=[100.0, 110.0, 105.0])
        tr2 = tr.with_derivative("BG")
        np.testing.assert_allclose(tr2["BG'"], [0.0, 2.0, -1.0])

    def test_with_derivative_custom_name(self):
        tr = make_trace(BG=[100.0, 110.0])
        tr2 = tr.with_derivative("BG", out="dBG")
        assert "dBG" in tr2

    def test_derivative_first_sample_is_zero(self):
        tr = make_trace(BG=[42.0])
        tr2 = tr.with_derivative("BG")
        assert tr2["BG'"][0] == 0.0


class TestSlice:
    def test_slice_shifts_t0(self):
        tr = Trace({"a": np.arange(10.0)}, dt=5.0)
        sub = tr.slice(2, 6)
        assert len(sub) == 4
        assert sub.t0 == pytest.approx(10.0)
        np.testing.assert_allclose(sub["a"], [2, 3, 4, 5])

    def test_slice_default_stop(self):
        tr = Trace({"a": np.arange(4.0)}, dt=5.0)
        assert len(tr.slice(1)) == 3

    def test_bad_slice_rejected(self):
        tr = Trace({"a": np.arange(4.0)}, dt=5.0)
        with pytest.raises(IndexError):
            tr.slice(3, 2)
        with pytest.raises(IndexError):
            tr.slice(0, 99)

    def test_to_dict_is_shallow_copy(self):
        tr = make_trace(a=[1.0])
        d = tr.to_dict()
        d["b"] = np.array([2.0])
        assert "b" not in tr
