"""Row-exact batched NN inference.

``predict_rows`` runs stacked single-row forwards (``X[block, None]``),
which must be bit-identical to one forward per row -- the model's one-row
``predict`` -- for any row count and input alignment, on this BLAS build
and, through the guard, on any other.  The batched LSTM monitor built on
it must match the one-row ``predict`` of each k-cycle window on every
window edge case, and resume its k-window from a crash-recovery snapshot.
"""

import pickle

import numpy as np
import pytest

import repro.ml.nn.model as nn_model
from repro.ml import train_lstm_monitor
from repro.ml.monitors import LSTMMonitor
from repro.ml.nn import LSTMClassifier, MLPClassifier
from repro.serve import MonitorService, TickBatch
from repro.simulation import ContextBatch, iter_contexts, iter_trace_ticks
from tests.conftest import replay_alone

ROW_COUNTS = (1, 2, 7, 31, 32, 33, 70)
#: element offsets into a flat buffer: rows start off the allocation's
#: alignment, by a different amount per row
ODD_OFFSETS = (1, 3)
N_FEATURES = 10
WINDOW = 6


@pytest.fixture(scope="module")
def mlp():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((200, N_FEATURES))
    y = rng.integers(0, 3, size=200)
    return MLPClassifier(n_classes=3, seed=0, max_epochs=1).fit(X, y)


@pytest.fixture(scope="module")
def lstm():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((200, WINDOW, N_FEATURES))
    y = rng.integers(0, 2, size=200)
    return LSTMClassifier(seed=0, max_epochs=1).fit(X, y)


@pytest.fixture(scope="module")
def lstm_monitor(tiny_campaign_traces):
    # a small stack: the window logic, not the model size, is under test
    return train_lstm_monitor(tiny_campaign_traces, hidden=(16, 8),
                              max_epochs=2)


def _misaligned(n, row_shape, offset, seed=0):
    """``n`` random rows of *row_shape* cut from a flat buffer at an odd
    element offset."""
    size = int(np.prod(row_shape))
    flat = np.random.default_rng(seed).standard_normal(n * size + 8)
    return flat[offset:offset + n * size].reshape(n, *row_shape)


def _one_row_windows(monitor, batch):
    """``(alerts, hazards)`` from the model's one-row ``predict`` of each
    column's k-cycle window, in a fresh buffer, silent until a column has
    seen ``k`` cycles; a binary alert's hazard follows the glucose."""
    alerts = np.zeros(batch.shape, dtype=bool)
    hazards = np.zeros(batch.shape, dtype=int)
    n_steps, n_cols = batch.shape
    for b in range(n_cols):
        for t in range(monitor.k - 1, n_steps):
            window = np.ascontiguousarray(
                batch.features[t - monitor.k + 1:t + 1, :, b])
            if int(monitor.model.predict(window[None])[0]):
                alerts[t, b] = True
                hazards[t, b] = 1 if batch.bg[t, b] < monitor.bg_target \
                    else 2
    return alerts, hazards


def _truncated(batch, n_steps):
    return ContextBatch(t=batch.t[:n_steps],
                        features=batch.features[:n_steps],
                        action=batch.action[:n_steps], dt=batch.dt)


class TestStackedForwards:
    @pytest.mark.parametrize("offset", ODD_OFFSETS)
    @pytest.mark.parametrize("n", ROW_COUNTS)
    @pytest.mark.parametrize("kind", ("mlp", "lstm"))
    def test_stacked_equals_per_row_bit_for_bit(self, request, kind, n,
                                                offset):
        model = request.getfixturevalue(kind)
        row_shape = (N_FEATURES,) if kind == "mlp" else (WINDOW, N_FEATURES)
        X = _misaligned(n, row_shape, offset, seed=n)
        stacked = model._forward(X[:, None], training=False)[:, 0]
        # each row in a fresh buffer, like the scalar observe path
        per_row = np.concatenate([
            model._forward(X[i:i + 1].copy(), training=False)
            for i in range(n)])
        assert stacked.shape == per_row.shape
        assert np.array_equal(stacked, per_row)
        predicted = model.predict_rows(X)
        assert predicted.tolist() == [int(model.predict(X[i:i + 1])[0])
                                      for i in range(n)]

    def test_empty_input(self, mlp, lstm):
        for model, shape in ((mlp, (0, N_FEATURES)),
                             (lstm, (0, WINDOW, N_FEATURES))):
            out = model.predict_rows(np.empty(shape))
            assert out.shape == (0,)

    def test_unfitted_model_refuses(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            MLPClassifier().predict_rows(np.zeros((2, N_FEATURES)))


class TestBlasGuard:
    def test_guard_reports_exact_on_this_build(self):
        """A BLAS whose stacked products drift would silently fall to one
        row per forward; fail loudly instead, so it is noticed."""
        nn_model.stacked_rows_exact.cache_clear()  # probe afresh
        # the paper architectures (MLP 256-128, LSTM 128-64) over the 10
        # context features, binary and multi-class heads
        shapes = [(10, 256), (256, 128), (128, 2), (128, 3),
                  (10, 512), (128, 512), (128, 256), (64, 256), (64, 2),
                  (64, 3)]
        assert all(nn_model.stacked_rows_exact(shape) for shape in shapes)
        assert nn_model.stacked_rows_exact.cache_info().misses == len(shapes)

    @pytest.mark.parametrize("arrival", ("fit", "load_params", "unpickle"))
    @pytest.mark.parametrize("kind", ("mlp", "lstm"))
    def test_probe_runs_when_weights_arrive(self, request, kind, arrival):
        """Fitting, rebuilding or unpickling a model probes its weight
        shapes, so its first predict_rows -- in a serving process, the
        first tick -- allocates no probe arrays."""
        model = request.getfixturevalue(kind)
        cls = type(model)
        row_shape = (N_FEATURES,) if kind == "mlp" else (WINDOW, N_FEATURES)
        shapes = {p.shape for layer in model.layers for p in layer.params
                  if p.ndim == 2}
        nn_model.stacked_rows_exact.cache_clear()
        if arrival == "fit":
            rng = np.random.default_rng(5)
            arrived = cls(n_classes=model.n_classes, seed=0,
                          max_epochs=1).fit(
                rng.standard_normal((20, *row_shape)),
                np.arange(20) % model.n_classes)
        elif arrival == "load_params":
            arrived = cls(n_classes=model.n_classes).load_params(
                row_shape, model.export_params())
        else:
            arrived = pickle.loads(pickle.dumps(model))
        assert nn_model.stacked_rows_exact.cache_info().currsize == len(
            shapes)
        misses = nn_model.stacked_rows_exact.cache_info().misses
        arrived.predict_rows(_misaligned(3, row_shape, 1))
        assert nn_model.stacked_rows_exact.cache_info().misses == misses

    @pytest.mark.parametrize("kind", ("mlp", "lstm"))
    def test_not_exact_runs_one_row_per_forward(self, request, monkeypatch,
                                                kind):
        model = request.getfixturevalue(kind)
        row_shape = (N_FEATURES,) if kind == "mlp" else (WINDOW, N_FEATURES)
        X = _misaligned(70, row_shape, 1)
        exact = model.predict_rows(X)

        rows_per_forward = []
        forward = model._forward

        def spy(x, training):
            rows_per_forward.append(len(x))
            return forward(x, training)

        monkeypatch.setattr(nn_model, "stacked_rows_exact",
                            lambda shape: False)
        monkeypatch.setattr(model, "_forward", spy)
        assert np.array_equal(model.predict_rows(X), exact)
        assert rows_per_forward == [1] * len(X)


class TestBatchedLSTMWindows:
    """Window edge cases against each window's one-row ``predict``."""

    @pytest.mark.parametrize("k, n_steps", [
        (6, 4),    # shorter than the window: all silent
        (6, 5),
        (6, 6),    # exactly one window per column
        (1, 20),   # every cycle is a window
        (6, 40),
    ])
    def test_matches_one_row_predict(self, lstm_monitor,
                                     tiny_campaign_traces, k, n_steps):
        monitor = LSTMMonitor(lstm_monitor.model, k=k)
        batch = _truncated(ContextBatch.from_traces(
            tiny_campaign_traces[:5]), n_steps)
        alerts, hazards = monitor.observe_batch(batch)
        ref_alerts, ref_hazards = _one_row_windows(monitor, batch)
        assert np.array_equal(alerts, ref_alerts)
        assert np.array_equal(hazards, ref_hazards)
        assert not alerts[:k - 1].any()

    def test_alerting_batch_ignores_the_observe_stream(
            self, lstm_monitor, tiny_campaign_traces):
        monitor = lstm_monitor.clone()
        for ctx in list(iter_contexts(tiny_campaign_traces[0]))[:3]:
            monitor.observe(ctx)
        batch = ContextBatch.from_traces(tiny_campaign_traces[:8])
        alerts, hazards = monitor.observe_batch(batch)
        assert alerts.any()
        ref_alerts, ref_hazards = _one_row_windows(monitor, batch)
        assert np.array_equal(alerts, ref_alerts)
        assert np.array_equal(hazards, ref_hazards)


class TestLSTMRuntimeState:
    @pytest.mark.parametrize("cut", (4, 10))  # window filling, and full
    def test_snapshot_recover_resumes_the_window(
            self, lstm_monitor, tiny_campaign_traces, tmp_path, cut):
        trace = next(trace for trace in tiny_campaign_traces
                     if replay_alone(lstm_monitor, trace)[0].any())
        expected, _ = replay_alone(lstm_monitor, trace)
        ticks = [TickBatch(t=tick.t, user_ids=("u",), cgm=tick.cgm,
                           iob=tick.iob, iob_rate=tick.iob_rate,
                           rate=tick.rate, bolus=tick.bolus,
                           action=tick.action)
                 for tick in iter_trace_ticks([trace])]
        directory = str(tmp_path / "state")
        service = MonitorService({"LSTM": lstm_monitor},
                                 persist_dir=directory, fsync=False)
        served = [service.process(tick).alerts["LSTM"][0]
                  for tick in ticks[:cut]]
        service.snapshot()
        service.close()
        recovered = MonitorService.recover(directory, fsync=False)
        # the window came back from the snapshot, not a journal replay
        assert recovered.recovery_report.ticks_replayed == 0
        served += [recovered.process(tick).alerts["LSTM"][0]
                   for tick in ticks[cut:]]
        np.testing.assert_array_equal(served, expected)
        assert expected[cut:].any()
