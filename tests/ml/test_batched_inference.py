"""Batched NN inference: row-exact and certified.

``predict_rows`` must return, for every row, the class of the model's
one-row ``predict``, for any row count and input alignment, on this BLAS
build and, through the guard, on any other.  Its row-exact forwards
(``X[block, None]``) are bit-identical to one forward per row.  For the
MLP, whole-block gemm forwards decide every row whose class the
forward-error certificate proves; a drawn stack, exact ties and rows
where gemm and gemv pick different classes hold it to the one-row class.
The batched LSTM monitor built on it must match the one-row ``predict``
of each k-cycle window on every window edge case, and resume its
k-window from a crash-recovery snapshot.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        """With the guard forced false the row-exact forwards take one
        row each: every LSTM row, and only the MLP rows the certificate
        leaves open (here the two NaN rows)."""
        model = request.getfixturevalue(kind)
        row_shape = (N_FEATURES,) if kind == "mlp" else (WINDOW, N_FEATURES)
        X = _misaligned(70, row_shape, 1)
        X[[5, 40]] = np.nan
        exact = model.predict_rows(X)
        assert exact.tolist() == [int(model.predict(X[i:i + 1])[0])
                                  for i in range(len(X))]

        rows_per_forward = []
        forward = model._forward

        def spy(x, training):
            rows_per_forward.append(len(x))
            return forward(x, training)

        monkeypatch.setattr(nn_model, "stacked_rows_exact",
                            lambda shape: False)
        monkeypatch.setattr(model, "_forward", spy)
        assert np.array_equal(model.predict_rows(X), exact)
        assert rows_per_forward == [1] * (2 if kind == "mlp" else len(X))


#: entries the drawn rows may hold besides standard normals
SPECIAL_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e150, -1e150,
                  np.nan, np.inf, -np.inf)


def _stack(n_features, hidden, n_classes, seed, scales=None, dropout=0.0):
    """An MLP of *hidden* widths with seeded weights, layer ``l`` scaled by
    ``scales[l]``, and an identity standardiser: its standardised rows
    are the input rows, bit for bit."""
    rng = np.random.default_rng(seed)
    widths = (n_features, *hidden, n_classes)
    scales = scales or (1.0,) * (len(widths) - 1)
    params = [np.zeros(n_features), np.ones(n_features)]
    for fan_in, fan_out, scale in zip(widths, widths[1:], scales):
        params += [rng.standard_normal((fan_in, fan_out)) * scale,
                   rng.standard_normal(fan_out) * scale]
    model = MLPClassifier(hidden=hidden, n_classes=n_classes,
                          dropout=dropout)
    return model.load_params((n_features,), params)


def _one_row_classes(model, X):
    return np.array([int(model.predict(X[i:i + 1])[0])
                     for i in range(len(X))], dtype=np.intp)


def _block_classes(model, X):
    """Classes of the whole-block forwards alone, uncertified."""
    return np.concatenate([
        np.argmax(model._block_logits(X[start:start + nn_model.ROW_BLOCK]),
                  axis=1)
        for start in range(0, len(X), nn_model.ROW_BLOCK)])


def _near_tie(model, gap, seed=4):
    """Make output column 1 column 0 with a relative *gap* of seeded noise
    in each weight (0: an exact tie), so that rounding decides between
    the two classes."""
    last = model.layers[-1]
    last.W[:, 1] = last.W[:, 0] * (1.0 + gap * np.random.default_rng(
        seed).standard_normal(len(last.W)))
    last.b[1] = last.b[0]
    model._probe_blas()  # the weights changed in place


@st.composite
def drawn_stacks(draw):
    """A Dense/ReLU/Dropout stack, maybe with two near-tied classes, and
    rows with extreme entries."""
    n_features = draw(st.integers(1, 12))
    hidden = tuple(draw(st.lists(st.integers(1, 512), min_size=1,
                                 max_size=3)))
    scales = tuple(draw(st.lists(
        st.sampled_from((1e-3, 1e-1, 1.0, 10.0, 1e3)),
        min_size=len(hidden) + 1, max_size=len(hidden) + 1)))
    model = _stack(n_features, hidden, draw(st.integers(2, 4)),
                   draw(st.integers(0, 2 ** 32 - 1)), scales,
                   draw(st.sampled_from((0.0, 0.2))))
    gap = draw(st.sampled_from((None, 0.0, 1e-16, 1e-14)))
    if gap is not None:
        _near_tie(model, gap)
    n_rows = draw(st.integers(0, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = rng.standard_normal((n_rows, n_features)) * draw(
        st.sampled_from((1e-300, 1.0, 1e150)))
    if n_rows:
        cells = st.tuples(st.integers(0, n_rows - 1),
                          st.integers(0, n_features - 1))
        for (row, col), value in draw(st.lists(st.tuples(
                cells, st.sampled_from(SPECIAL_VALUES)), max_size=24)):
            X[row, col] = value
        for src, dst in draw(st.lists(st.tuples(
                st.integers(0, n_rows - 1), st.integers(0, n_rows - 1)),
                max_size=8)):
            X[dst] = X[src]
    return model, X


class TestCertifiedBlocks:
    """The MLP's whole-block forwards keep only certified classes."""

    @given(drawn_stacks())
    @settings(max_examples=60, deadline=None)
    def test_every_row_equals_one_row_predict(self, drawn):
        model, X = drawn
        with np.errstate(all="ignore"):  # NaN/inf rows are the point
            assert model.predict_rows(X).tolist() == \
                _one_row_classes(model, X).tolist()

    @pytest.mark.parametrize("n_tied", (2, 3))
    def test_exact_ties_fall_back_to_class_zero(self, monkeypatch, n_tied):
        """Identical output columns tie exactly in both paths: no bound
        certifies a tie, so exactly the rows a tied class tops take the
        row-exact forwards, and argmax returns the first tied class."""
        model = _stack(N_FEATURES, (64, 16), 3, seed=11)
        last = model.layers[-1]
        last.W[:, 1:n_tied] = last.W[:, :1]
        last.b[1:n_tied] = last.b[0]
        model._probe_blas()  # the weights changed in place
        X = _misaligned(70, (N_FEATURES,), 1, seed=12)
        seen = []
        forward = model._forward

        def spy(x, training):
            seen.append(x[:, 0].copy())
            return forward(x, training)

        monkeypatch.setattr(model, "_forward", spy)
        predicted = model.predict_rows(X)
        monkeypatch.undo()
        assert predicted.tolist() == _one_row_classes(model, X).tolist()
        tied = predicted == 0
        assert set(predicted.tolist()) <= {0, *range(n_tied, 3)}
        if n_tied == 3:
            assert tied.all()
        else:  # both kinds of row are present
            assert 0 < tied.sum() < len(X)
        assert np.array_equal(np.concatenate(seen), X[tied])

    def test_rows_where_gemm_and_gemv_disagree(self):
        """Two output columns 1e-16 apart make rounding decide the class;
        on seeded rows the whole-block forward picks the other class than
        the one-row forward, and the certified path still returns the
        one-row class."""
        model = _stack(N_FEATURES, (64,), 2, seed=3)
        _near_tie(model, 1e-16)
        X = np.random.default_rng(7).standard_normal((2048, N_FEATURES))
        expected = _one_row_classes(model, X)
        disagree = _block_classes(model, X) != expected
        assert disagree.sum() >= 10
        assert np.array_equal(model.predict_rows(X), expected)
        assert np.array_equal(model.predict_rows(X[disagree]),
                              expected[disagree])

    def test_overflowing_hidden_unit_takes_the_row_exact_forwards(self):
        """A hidden unit that overflows to -inf is 0 after the block
        path's ReLU but NaN after the row-exact one (-inf * 0), so the
        logits differ although the bound at the output stays small; the
        overflow limit sends the row to the row-exact forwards."""
        model = _stack(1, (1,), 2, seed=0)
        hidden, _, head = model.layers
        hidden.W[...] = -1.5e308
        hidden.b[...] = 0.0
        head.W[...] = [[1e-300, 0.0]]
        head.b[...] = [0.0, 1.0]
        model._probe_blas()
        X = np.array([[1.5], [1e-10]])
        with np.errstate(all="ignore"):
            assert _block_classes(model, X).tolist() == [1, 1]
            assert model.predict_rows(X).tolist() == \
                _one_row_classes(model, X).tolist() == [0, 1]

    def test_certificate_only_for_feed_forward_stacks(self, mlp, lstm):
        limit, d1, d0 = mlp._certificate
        assert limit > 0 and d1 > 0 and d0 > 0
        assert all(type(value) is float for value in mlp._certificate)
        assert lstm._certificate is None
        poisoned = _stack(N_FEATURES, (8,), 2, seed=0)
        poisoned.layers[0].W[0, 0] = np.inf
        poisoned._probe_blas()
        assert poisoned._certificate is None
        X = _misaligned(40, (N_FEATURES,), 1)
        with np.errstate(all="ignore"):
            assert poisoned.predict_rows(X).tolist() == \
                _one_row_classes(poisoned, X).tolist()

    @pytest.mark.parametrize("kind", ("mlp", "lstm"))
    def test_certificate_is_rebuilt_not_pickled(self, request, kind):
        model = request.getfixturevalue(kind)
        blob = pickle.dumps(model)
        assert b"_certificate" not in blob
        assert pickle.loads(blob)._certificate == model._certificate

    def test_predict_reads_the_class_off_the_logits(self):
        """softmax rounds logits 1e-300 apart to one probability; the
        class still follows the larger logit, as in predict_rows."""
        model = _stack(1, (1,), 2, seed=0)
        hidden, _, head = model.layers
        hidden.W[...] = 1.0
        hidden.b[...] = 0.0
        head.W[...] = [[0.0, 1.0]]
        head.b[...] = 0.0
        model._probe_blas()
        X = np.array([[1e-300], [1.0], [0.0]])
        proba = model.predict_proba(X[:1])
        assert proba[0, 0] == proba[0, 1]
        assert model.predict(X).tolist() == [1, 1, 0]
        assert model.predict_rows(X).tolist() == [1, 1, 0]

    @given(st.lists(st.sampled_from((*SPECIAL_VALUES, 1.5, -3.25, 1e-8)),
                    min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_standardizer_in_place_is_bit_identical(self, values):
        X = np.array(values).reshape(-1, 1) * np.ones((1, 3))
        X[:, 1] *= -2.0
        scaler = nn_model.Standardizer()
        scaler.mean = np.array([0.5, -1e-3, 1e150])
        scaler.std = np.array([3.0, 1e-300, 1.0])
        before = X.copy()
        with np.errstate(all="ignore"):
            expected = (X - scaler.mean) / scaler.std
            out = scaler.transform(X)
        assert out.tobytes() == expected.tobytes()
        assert X.tobytes() == before.tobytes()


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
