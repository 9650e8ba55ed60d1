"""Tests for dataset builders and the ML monitor wrappers."""

import pickle

import numpy as np
import pytest

from repro.controllers import ControlAction
from repro.core import ContextVector
from repro.hazards import HazardType
from repro.ml import (
    FEATURE_NAMES,
    LSTMClassifier,
    LSTMMonitor,
    TrainingJob,
    build_point_dataset,
    build_window_dataset,
    point_labels,
    run_training_jobs,
    trace_features,
)
from repro.simulation import ContextBatch
from tests.conftest import LOCKSTEP_WIDTHS


@pytest.fixture(scope="module")
def small_traces(tiny_campaign_traces):
    # the session-scoped shared campaign (simulated once, see conftest)
    return tiny_campaign_traces


@pytest.fixture
def dt_monitor(small_traces):
    """A freshly trained depth-6 tree over the shared campaign."""
    (trained,) = run_training_jobs([TrainingJob.make("dt", max_depth=6)],
                                   small_traces)
    return trained.monitor


class TestFeatures:
    def test_feature_matrix_shape(self, small_traces):
        features = trace_features(small_traces[0])
        assert features.shape == (150, len(FEATURE_NAMES))

    def test_one_hot_actions_sum_to_one(self, small_traces):
        features = trace_features(small_traces[0])
        one_hot = features[:, 6:10]
        np.testing.assert_allclose(one_hot.sum(axis=1), 1.0)

    def test_live_tick_matches_trace_layout(self, small_traces):
        trace = small_traces[0]
        features = trace_features(trace)
        t = 10
        bg_rate = (trace.cgm[t] - trace.cgm[t - 1]) / trace.dt
        tick = ContextBatch.from_tick(
            t=trace.t[t], bg=[trace.cgm[t]], bg_rate=[bg_rate],
            iob=[trace.iob[t]], iob_rate=[trace.iob_rate[t]],
            rate=[trace.cmd_rate[t]], bolus=[trace.cmd_bolus[t]],
            action=[trace.action[t]], dt=trace.dt)
        np.testing.assert_allclose(tick.features[0, :, 0], features[t])


class TestLabels:
    def test_safe_trace_all_zero(self, small_traces):
        safe = next(t for t in small_traces if not t.hazardous)
        assert point_labels(safe).sum() == 0

    def test_hazardous_trace_positive_before_hazard(self, small_traces):
        hazardous = next(t for t in small_traces if t.hazardous)
        labels = point_labels(hazardous)
        th = hazardous.hazard_label.first_hazard
        # Eq. 7: every cycle before a future hazard is positive
        assert labels[:th + 1].all()

    def test_labels_monotone_nonincreasing(self, small_traces):
        """Once the last hazard has passed, labels return to 0."""
        hazardous = next(t for t in small_traces if t.hazardous)
        labels = point_labels(hazardous)
        assert set(np.diff(labels)) <= {-1, 0}

    def test_multiclass_labels_match_types(self, small_traces):
        hazardous = next(t for t in small_traces if t.hazardous)
        labels = point_labels(hazardous, multiclass=True)
        assert set(labels) <= {0, 1, 2}
        first_type = int(hazardous.hazard_label.first_type)
        assert labels[0] == first_type


class TestDatasets:
    def test_point_dataset_shapes(self, small_traces):
        X, y = build_point_dataset(small_traces)
        assert X.shape == (len(small_traces) * 150, len(FEATURE_NAMES))
        assert y.shape == (len(X),)
        assert set(np.unique(y)) <= {0, 1}

    def test_window_dataset_shapes(self, small_traces):
        X, y = build_window_dataset(small_traces, k=6)
        assert X.shape == (len(small_traces) * (150 - 5), 6, len(FEATURE_NAMES))
        assert len(X) == len(y)

    def test_window_alignment(self, small_traces):
        """Window i ends at cycle i+k-1 and carries that cycle's label."""
        trace = small_traces[0]
        X, y = build_window_dataset([trace], k=6)
        features = trace_features(trace)
        np.testing.assert_allclose(X[0], features[0:6])
        np.testing.assert_allclose(X[10][-1], features[15])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            build_point_dataset([])
        with pytest.raises(ValueError):
            build_window_dataset([], k=6)

    def test_invalid_k(self, small_traces):
        with pytest.raises(ValueError):
            build_window_dataset(small_traces, k=0)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_parallel_build_identical(self, small_traces, workers):
        X, y = build_point_dataset(small_traces, workers=1)
        Xp, yp = build_point_dataset(small_traces, workers=workers)
        assert np.array_equal(X, Xp)
        assert np.array_equal(y, yp)

    def test_window_longer_than_every_trace(self, small_traces):
        k = max(len(trace) for trace in small_traces) + 1
        with pytest.raises(ValueError, match="long enough"):
            build_window_dataset(small_traces, k=k)

    def test_window_equal_to_trace_length(self, small_traces):
        trace = small_traces[0]
        X, y = build_window_dataset([trace], k=len(trace))
        assert X.shape == (1, len(trace), len(FEATURE_NAMES))
        np.testing.assert_array_equal(X[0], trace_features(trace))
        assert y.tolist() == [point_labels(trace)[-1]]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_parallel_window_build_identical(self, small_traces, workers):
        X, y = build_window_dataset(small_traces, k=6, workers=1)
        Xp, yp = build_window_dataset(small_traces, k=6, workers=workers)
        assert np.array_equal(X, Xp)
        assert np.array_equal(y, yp)

    @pytest.mark.parametrize("width", LOCKSTEP_WIDTHS)
    def test_chunk_width_moves_no_element(self, small_traces,
                                          set_lockstep_width, width):
        """The builders cut the traces into lock-step-width chunks; any
        width, on the forked pool, stacks the same matrices."""
        point = build_point_dataset(small_traces)
        window = build_window_dataset(small_traces, k=6, multiclass=True)
        set_lockstep_width(width)
        rebuilt = (build_point_dataset(small_traces, workers=2),
                   build_window_dataset(small_traces, k=6, multiclass=True,
                                        workers=2))
        for want, got in zip((point, window), rebuilt):
            assert np.array_equal(want[0], got[0])
            assert np.array_equal(want[1], got[1])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_short_traces_skipped(self, small_traces, tiny_fault_free_traces,
                                  set_lockstep_width, workers):
        """A trace shorter than k yields no window, whether it shares a
        chunk or makes one on its own."""
        set_lockstep_width(1)  # every trace is a chunk of its own
        (short,) = tiny_fault_free_traces
        long = list(small_traces[:2])
        k = len(short) + 1
        X, y = build_window_dataset([short] + long + [short], k=k,
                                    workers=workers)
        assert X.shape == (2 * (len(long[0]) - k + 1), k, len(FEATURE_NAMES))
        X_long, y_long = build_window_dataset(long, k=k)
        assert np.array_equal(X, X_long)
        assert np.array_equal(y, y_long)

    def test_binary_point_labels_are_nonzero_multiclass_labels(
            self, small_traces):
        X, y = build_point_dataset(small_traces)
        X_mc, y_mc = build_point_dataset(small_traces, multiclass=True)
        assert np.array_equal(X, X_mc)
        assert np.array_equal(y_mc, np.concatenate(
            [point_labels(trace, multiclass=True) for trace in small_traces]))
        assert np.array_equal(y, (y_mc > 0).astype(y.dtype))
        assert set(np.unique(y_mc)) <= {0, 1, 2}

    def test_multiclass_window_labels_are_last_cycle_labels(
            self, small_traces):
        k = 6
        _, y = build_window_dataset(small_traces, k=k, multiclass=True)
        assert np.array_equal(y, np.concatenate(
            [point_labels(trace, multiclass=True)[k - 1:]
             for trace in small_traces]))

    def test_matrices_are_owned_in_memory_arrays(self, small_traces):
        """Windows are copied out of the per-trace features: the stacked
        matrices own their data, backed by no file and no trace."""
        for X, y in (build_point_dataset(small_traces[:3]),
                     build_window_dataset(small_traces[:3], k=6)):
            for array in (X, y):
                assert type(array) is np.ndarray
                assert array.flags.owndata and array.flags.writeable

    def test_accepts_a_one_pass_iterable(self, small_traces):
        X, y = build_point_dataset(iter(small_traces))
        X_list, y_list = build_point_dataset(small_traces)
        assert np.array_equal(X, X_list)
        assert np.array_equal(y, y_list)


class TestMonitors:
    def test_dt_monitor_detects_trained_hazards(self, small_traces,
                                                dt_monitor):
        hazardous = next(t for t in small_traces if t.hazardous)
        alerts = 0
        features = trace_features(hazardous)
        labels = point_labels(hazardous)
        predictions = dt_monitor.model.predict(features)
        # in-sample: the tree should recover most positive labels
        recall = (predictions[labels == 1] == 1).mean()
        assert recall > 0.6

    def test_dt_monitor_verdict_interface(self, dt_monitor):
        ctx = ContextVector(t=0.0, bg=120.0, bg_rate=0.0, iob=0.0,
                            iob_rate=0.0, rate=1.5, bolus=0.0,
                            action=ControlAction.KEEP)
        verdict = dt_monitor.observe(ctx)
        assert verdict.alert in (True, False)
        if verdict.alert:
            assert verdict.hazard in (HazardType.H1, HazardType.H2)

    def test_binary_monitor_infers_hazard_from_bg(self, dt_monitor):
        # force an alert-ish context: extreme overdose pattern
        ctx = ContextVector(t=0.0, bg=70.0, bg_rate=-2.0, iob=8.0,
                            iob_rate=0.05, rate=10.0, bolus=0.0,
                            action=ControlAction.INCREASE)
        verdict = dt_monitor.observe(ctx)
        if verdict.alert:
            assert verdict.hazard == HazardType.H1  # BG below target

    def test_lstm_monitor_warmup(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 6, len(FEATURE_NAMES)))
        y = (X[:, -1, 0] > 0).astype(int)
        model = LSTMClassifier(hidden=(4,), max_epochs=2, seed=0).fit(X, y)
        monitor = LSTMMonitor(model, k=6)
        ctx = ContextVector(t=0.0, bg=2.0, bg_rate=0.0, iob=0.0,
                            iob_rate=0.0, rate=0.0, bolus=0.0,
                            action=ControlAction.KEEP)
        first = [monitor.observe(ctx).alert for _ in range(8)]
        # fewer than k observations: silent by construction
        assert not any(first[:5]) and any(first)
        # reset clears the history: the warm-up repeats
        monitor.reset()
        assert [monitor.observe(ctx).alert for _ in range(8)] == first


class TestInferenceMemory:
    def test_trained_lstm_clone_is_small_and_replays_identically(
            self, small_traces):
        """A fitted model keeps no training activations, so a per-user
        clone pickles to its parameters (a few hundred KB per LSTM layer)
        and still replays exactly like the trained original."""
        model = LSTMClassifier(max_epochs=2, seed=0).fit(
            *build_window_dataset(small_traces, k=6))
        monitor = LSTMMonitor(model, k=6)
        clone = monitor.clone()
        payload = pickle.dumps(clone, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(payload) < 4 * 1024 * 1024
        restored = pickle.loads(payload)
        batch = ContextBatch.from_traces(small_traces[:4])
        alerts, hazards = monitor.observe_batch(batch)
        for copy in (clone, restored):
            copy_alerts, copy_hazards = copy.observe_batch(batch)
            assert np.array_equal(copy_alerts, alerts)
            assert np.array_equal(copy_hazards, hazards)
        # inference leaves nothing behind either
        assert len(pickle.dumps(monitor.clone(),
                                protocol=pickle.HIGHEST_PROTOCOL)) \
            < 4 * 1024 * 1024
