"""Tests for the LSTM layer (gradient check) and LSTM classifier."""

import numpy as np
import pytest

from repro.ml.nn import LSTMClassifier, LSTMLayer


class TestLSTMLayer:
    def test_forward_shape(self):
        layer = LSTMLayer(3, 5, rng=np.random.default_rng(0))
        out = layer.forward(np.zeros((4, 6, 3)))
        assert out.shape == (4, 6, 5)

    def test_rejects_2d_input(self):
        layer = LSTMLayer(3, 5)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((4, 3)))

    def test_gradient_check_params(self):
        """BPTT gradients match finite differences on a tiny problem."""
        rng = np.random.default_rng(0)
        layer = LSTMLayer(2, 3, rng=rng)
        x = rng.normal(size=(2, 4, 2))
        upstream = rng.normal(size=(2, 4, 3))

        def loss():
            return np.sum(layer.forward(x) * upstream)

        layer.forward(x, training=True)
        layer.backward(upstream)
        h = 1e-6
        for param, grad, idx in [
            (layer.Wx, layer.gWx, (0, 1)),
            (layer.Wh, layer.gWh, (2, 5)),
            (layer.b, layer.gb, (4,)),
        ]:
            analytic = grad[idx]
            param[idx] += h
            plus = loss()
            param[idx] -= 2 * h
            minus = loss()
            param[idx] += h
            numeric = (plus - minus) / (2 * h)
            assert analytic == pytest.approx(numeric, rel=1e-4, abs=1e-7)

    def test_gradient_check_input(self):
        rng = np.random.default_rng(1)
        layer = LSTMLayer(2, 3, rng=rng)
        x = rng.normal(size=(1, 3, 2))
        upstream = rng.normal(size=(1, 3, 3))
        layer.forward(x, training=True)
        grad_x = layer.backward(upstream)
        h = 1e-6
        x2 = x.copy()
        x2[0, 1, 0] += h
        plus = np.sum(layer.forward(x2) * upstream)
        x2[0, 1, 0] -= 2 * h
        minus = np.sum(layer.forward(x2) * upstream)
        numeric = (plus - minus) / (2 * h)
        assert grad_x[0, 1, 0] == pytest.approx(numeric, rel=1e-4)

    def test_backward_after_inference_forward_raises(self):
        layer = LSTMLayer(2, 3, rng=np.random.default_rng(0))
        x = np.zeros((1, 4, 2))
        with pytest.raises(RuntimeError, match="training=True"):
            layer.backward(np.zeros_like(layer.forward(x)))
        layer.forward(x, training=True)
        layer.forward(x)  # an inference forward drops the BPTT cache
        assert layer._cache is None

    def test_forget_bias_initialised_to_one(self):
        layer = LSTMLayer(2, 4)
        np.testing.assert_array_equal(layer.b[4:8], 1.0)


class TestLSTMClassifier:
    def test_learns_sequence_sum_sign(self):
        """Classify whether the sequence sum is positive — needs memory."""
        rng = np.random.default_rng(0)
        X = rng.normal(size=(600, 6, 2))
        y = (X.sum(axis=(1, 2)) > 0).astype(int)
        clf = LSTMClassifier(hidden=(8,), max_epochs=80, lr=0.01, seed=0).fit(X, y)
        assert (clf.predict(X) == y).mean() > 0.9

    def test_learns_order_dependent_task(self):
        """Label depends on the LAST step's sign — tests recurrence."""
        rng = np.random.default_rng(1)
        X = rng.normal(size=(600, 5, 1))
        y = (X[:, -1, 0] > 0).astype(int)
        clf = LSTMClassifier(hidden=(8,), max_epochs=60, lr=0.01, seed=0).fit(X, y)
        assert (clf.predict(X) == y).mean() > 0.95

    def test_stacked_architecture(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 4, 2))
        y = (X.sum(axis=(1, 2)) > 0).astype(int)
        clf = LSTMClassifier(hidden=(8, 4), max_epochs=5, seed=0).fit(X, y)
        # LSTM(8) -> LSTM(4) -> last-step -> Dense(2)
        from repro.ml.nn.lstm import LSTMLayer as L
        lstm_layers = [l for l in clf.layers if isinstance(l, L)]
        assert [l.hidden for l in lstm_layers] == [8, 4]

    def test_validation(self):
        with pytest.raises(ValueError):
            LSTMClassifier(hidden=())
