"""Tests for the numpy neural-network substrate (layers, losses, Adam, MLP)."""

import numpy as np
import pytest

from repro.ml.nn import (
    Adam,
    Dense,
    Dropout,
    MLPClassifier,
    ReLU,
    Standardizer,
    softmax,
    softmax_cross_entropy,
)


class TestLayers:
    def test_dense_forward_shape(self):
        layer = Dense(4, 3, rng=np.random.default_rng(0))
        out = layer.forward(np.ones((5, 4)))
        assert out.shape == (5, 3)

    def test_dense_gradient_check(self):
        rng = np.random.default_rng(0)
        layer = Dense(3, 2, rng=rng)
        x = rng.normal(size=(4, 3))
        out = layer.forward(x, training=True)
        upstream = rng.normal(size=out.shape)
        grad_x = layer.backward(upstream)
        h = 1e-6
        # check dL/dW numerically for one entry (L = sum(out * upstream))
        for (i, j) in [(0, 0), (2, 1)]:
            layer.W[i, j] += h
            plus = np.sum(layer.forward(x) * upstream)
            layer.W[i, j] -= 2 * h
            minus = np.sum(layer.forward(x) * upstream)
            layer.W[i, j] += h
            numeric = (plus - minus) / (2 * h)
            assert layer.gW[i, j] == pytest.approx(numeric, rel=1e-4)
        # and dL/dx
        x2 = x.copy()
        x2[1, 2] += h
        plus = np.sum(layer.forward(x2) * upstream)
        x2[1, 2] -= 2 * h
        minus = np.sum(layer.forward(x2) * upstream)
        numeric = (plus - minus) / (2 * h)
        assert grad_x[1, 2] == pytest.approx(numeric, rel=1e-4)

    def test_relu(self):
        layer = ReLU()
        x = np.array([[-1.0, 2.0]])
        np.testing.assert_array_equal(layer.forward(x, training=True),
                                      [[0.0, 2.0]])
        np.testing.assert_array_equal(layer.backward(np.ones((1, 2))),
                                      [[0.0, 1.0]])

    def test_backward_after_inference_forward_raises(self):
        """Only a training forward keeps backward state."""
        x = np.ones((2, 3))
        for layer in (Dense(3, 2, rng=np.random.default_rng(0)), ReLU()):
            out = layer.forward(x, training=True)
            layer.backward(np.ones_like(out))
            out = layer.forward(x)
            with pytest.raises(RuntimeError, match="training=True"):
                layer.backward(np.ones_like(out))

    def test_dropout_off_at_inference(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        x = np.ones((4, 4))
        np.testing.assert_array_equal(layer.forward(x, training=False), x)

    def test_dropout_scales_at_training(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        x = np.ones((2000, 1))
        out = layer.forward(x, training=True)
        assert out.mean() == pytest.approx(1.0, abs=0.1)  # inverted dropout
        assert (out == 0).any()

    def test_dropout_validation(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestLosses:
    def test_softmax_rows_sum_to_one(self):
        probs = softmax(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_softmax_stability(self):
        probs = softmax(np.array([[1000.0, 1001.0]]))
        assert np.isfinite(probs).all()

    def test_cross_entropy_perfect_prediction(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss, _ = softmax_cross_entropy(logits, np.array([0, 1]))
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_cross_entropy_gradient_check(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(5, 3))
        targets = np.array([0, 1, 2, 1, 0])
        _, grad = softmax_cross_entropy(logits, targets)
        h = 1e-6
        for (i, j) in [(0, 0), (3, 2)]:
            logits[i, j] += h
            plus, _ = softmax_cross_entropy(logits, targets)
            logits[i, j] -= 2 * h
            minus, _ = softmax_cross_entropy(logits, targets)
            logits[i, j] += h
            assert grad[i, j] == pytest.approx((plus - minus) / (2 * h), rel=1e-3)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((2, 2)), np.array([0, 5]))
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((2, 2)), np.array([0]))


class TestAdam:
    def test_minimizes_quadratic(self):
        param = np.array([5.0])
        adam = Adam([param], lr=0.1)
        for _ in range(500):
            adam.step([2.0 * param])  # d/dx x^2
        assert abs(param[0]) < 0.05

    def test_grad_count_mismatch(self):
        adam = Adam([np.zeros(2)])
        with pytest.raises(ValueError):
            adam.step([np.zeros(2), np.zeros(2)])

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            Adam([np.zeros(1)], lr=0.0)


class TestStandardizer:
    def test_zero_mean_unit_std(self):
        rng = np.random.default_rng(0)
        X = rng.normal(5.0, 3.0, size=(500, 4))
        scaled = Standardizer().fit(X).transform(X)
        np.testing.assert_allclose(scaled.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(scaled.std(axis=0), 1.0, atol=1e-9)

    def test_constant_feature_safe(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        scaled = Standardizer().fit(X).transform(X)
        assert np.isfinite(scaled).all()

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            Standardizer().transform(np.zeros((2, 2)))


class TestMLPClassifier:
    def test_learns_linearly_separable(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(600, 4))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        clf = MLPClassifier(hidden=(16,), max_epochs=60, lr=0.01, seed=0).fit(X, y)
        assert (clf.predict(X) == y).mean() > 0.95

    def test_learns_xor(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(800, 2))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
        clf = MLPClassifier(hidden=(32, 16), max_epochs=150, dropout=0.0,
                            lr=0.01, seed=0).fit(X, y)
        assert (clf.predict(X) == y).mean() > 0.9

    def test_early_stopping_recorded(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(300, 3))
        y = (X[:, 0] > 0).astype(int)
        clf = MLPClassifier(hidden=(8,), max_epochs=100, patience=3,
                            seed=0).fit(X, y)
        assert 1 <= len(clf.history) <= 100

    def test_predict_proba_normalised(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 3))
        y = (X[:, 0] > 0).astype(int)
        clf = MLPClassifier(hidden=(8,), max_epochs=5, seed=0).fit(X, y)
        proba = clf.predict_proba(X[:7])
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            MLPClassifier(hidden=())
        with pytest.raises(ValueError):
            MLPClassifier(n_classes=1)
        with pytest.raises(ValueError):
            MLPClassifier().fit(np.zeros((5, 2)), np.zeros(5))  # too few
        with pytest.raises(RuntimeError):
            MLPClassifier().predict(np.zeros((1, 2)))

    def test_multiclass(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(600, 2))
        y = np.digitize(X[:, 0], [-0.5, 0.5])
        clf = MLPClassifier(hidden=(16,), n_classes=3, max_epochs=80,
                            lr=0.01, seed=0).fit(X, y)
        assert (clf.predict(X) == y).mean() > 0.85
