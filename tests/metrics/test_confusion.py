"""Tests for the tolerance-window confusion matrix (Table IV)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import ConfusionCounts, tolerance_confusion, traces_confusion
from tests.simulation.test_scenario_trace import build_trace


def seq(*indices, n=30):
    out = np.zeros(n, dtype=bool)
    for i in indices:
        out[i] = True
    return out


class TestConfusionCounts:
    def test_rates(self):
        cm = ConfusionCounts(tp=8, fp=2, fn=2, tn=88)
        assert cm.fpr == pytest.approx(2 / 90)
        assert cm.fnr == pytest.approx(2 / 10)
        assert cm.accuracy == pytest.approx(96 / 100)
        assert cm.precision == pytest.approx(0.8)
        assert cm.recall == pytest.approx(0.8)
        assert cm.f1 == pytest.approx(0.8)

    def test_degenerate_rates_are_zero(self):
        cm = ConfusionCounts()
        assert cm.fpr == 0.0 and cm.fnr == 0.0 and cm.f1 == 0.0

    def test_addition(self):
        total = ConfusionCounts(1, 2, 3, 4) + ConfusionCounts(10, 20, 30, 40)
        assert (total.tp, total.fp, total.fn, total.tn) == (11, 22, 33, 44)

    def test_as_row_order(self):
        cm = ConfusionCounts(tp=1, fp=0, fn=0, tn=1)
        fpr, fnr, acc, f1 = cm.as_row()
        assert acc == 1.0 and f1 == 1.0


class TestToleranceWindow:
    def test_perfect_silence_on_safe_trace(self):
        cm = tolerance_confusion(seq(), seq(), delta=6)
        assert cm.fp == 0 and cm.fn == 0 and cm.tn == 30

    def test_early_alert_counts_as_tp(self):
        """Alert 4 cycles before the hazard: episode detected."""
        pred = seq(10)
        truth = seq(14, 15, 16)
        cm = tolerance_confusion(pred, truth, delta=6)
        assert cm.fn == 0
        assert cm.tp > 0

    def test_alert_too_early_is_fp(self):
        """Alert far outside the anchored window is a false positive."""
        pred = seq(0)
        truth = seq(25, 26)
        cm = tolerance_confusion(pred, truth, delta=6)
        assert cm.fp == 1
        assert cm.fn > 0  # the episode itself was never announced

    def test_missed_hazard_counts_fn_per_positive_sample(self):
        truth = seq(20, 21, 22)
        cm = tolerance_confusion(seq(), truth, delta=6)
        # positives: samples within delta before the run + the run itself
        assert cm.fn == 6 + 3
        assert cm.tp == 0

    def test_alert_with_no_hazard_is_fp(self):
        cm = tolerance_confusion(seq(5), seq(), delta=6)
        assert cm.fp == 1
        assert cm.tn == 29

    def test_alert_during_episode_detects_it(self):
        pred = seq(21)
        truth = seq(20, 21, 22)
        cm = tolerance_confusion(pred, truth, delta=6)
        assert cm.fn == 0

    def test_two_episodes_scored_independently(self):
        truth = np.zeros(60, dtype=bool)
        truth[10:13] = True   # detected
        truth[40:43] = True   # missed
        pred = seq(8, n=60)
        cm = tolerance_confusion(pred, truth, delta=4)
        assert cm.tp > 0 and cm.fn > 0

    def test_counts_partition_all_samples(self):
        rng = np.random.default_rng(0)
        pred = rng.random(50) < 0.2
        truth = rng.random(50) < 0.1
        cm = tolerance_confusion(pred, truth, delta=6)
        assert cm.total == 50

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            tolerance_confusion(seq(), seq(n=10), delta=6)

    def test_traces_alerts_count_mismatch(self):
        trace = build_trace(n=30, alerts={5})
        with pytest.raises(ValueError):
            traces_confusion([trace, trace], [trace.alert])

    def test_negative_delta(self):
        with pytest.raises(ValueError):
            tolerance_confusion(seq(), seq(), delta=-1)

    @given(st.integers(min_value=0, max_value=29),
           st.integers(min_value=0, max_value=29))
    @settings(max_examples=60, deadline=None)
    def test_property_single_alert_single_hazard(self, alert_at, hazard_at):
        cm = tolerance_confusion(seq(alert_at), seq(hazard_at), delta=6)
        detected = hazard_at - 6 <= alert_at <= hazard_at
        if detected:
            assert cm.fn == 0
        else:
            assert cm.fn > 0


def _loop_confusion(pred, truth, delta, lookback):
    """The per-sample loops ``tolerance_confusion`` ran before it was
    vectorised, kept as the reference its counts must equal."""
    pred = np.asarray(pred).astype(bool)
    truth = np.asarray(truth).astype(bool)
    n = len(pred)
    counts = ConfusionCounts()
    ground_pos = np.zeros(n, dtype=bool)
    for t in range(n):
        ground_pos[t] = truth[t:min(t + delta + 1, n)].any()
    episodes = []
    t = 0
    while t < n:
        if truth[t]:
            start = t
            while t + 1 < n and truth[t + 1]:
                t += 1
            episodes.append((start, t))
        t += 1
    detected = np.zeros(n, dtype=bool)
    for start, end in episodes:
        if pred[max(start - lookback, 0):end + 1].any():
            detected[max(start - delta, 0):end + 1] = True
    for t in range(n):
        if ground_pos[t]:
            if detected[t]:
                counts.tp += 1
            else:
                counts.fn += 1
        elif pred[t]:
            counts.fp += 1
        else:
            counts.tn += 1
    return counts


@st.composite
def labelled_sequences(draw):
    n = draw(st.integers(0, 300))
    kind = draw(st.sampled_from(("random", "runs", "all", "none")))
    if kind == "random":
        pred = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        truth = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    elif kind == "runs":  # a few hazard episodes and sparse alerts
        truth = [False] * n
        for start, length in draw(st.lists(st.tuples(
                st.integers(0, n), st.integers(1, 40)), max_size=6)):
            truth[start:start + length] = [True] * len(
                truth[start:start + length])
        pred = [False] * n
        for t in draw(st.lists(st.integers(0, max(n - 1, 0)),
                               max_size=8)) if n else ():
            pred[t] = True
    else:
        pred = [kind == "all"] * n
        truth = draw(st.sampled_from(([True] * n, [False] * n)))
    delta = draw(st.integers(0, n + 5))
    return np.array(pred, dtype=bool), np.array(truth, dtype=bool), delta


class TestVectorisedCounts:
    @given(labelled_sequences())
    @settings(max_examples=300, deadline=None)
    def test_counts_equal_the_per_sample_loops(self, drawn):
        pred, truth, delta = drawn
        expected = _loop_confusion(pred, truth, delta, lookback=delta)
        assert tolerance_confusion(pred, truth, delta=delta) == expected

    def test_refuses_a_matrix(self):
        with pytest.raises(ValueError, match="1-D"):
            tolerance_confusion(np.zeros((3, 4)), np.zeros((3, 4)))
