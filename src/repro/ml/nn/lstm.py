"""LSTM layer with backpropagation through time (numpy, from scratch).

Implements the standard LSTM cell (gates ordered input, forget, candidate,
output; forget-gate bias initialised to 1) over batched sequences, exactly
what the paper's two-layer stacked LSTM monitor needs: input windows of
k = 6 five-minute cycles, hidden sizes 128 and 64 (Section V-C4).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .layers import Layer, _require_training_forward

__all__ = ["LSTMLayer"]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


class LSTMLayer(Layer):
    """Batched LSTM over full sequences.

    ``forward`` maps ``(..., T, in_dim)`` to ``(..., T, hidden)``: an
    ``(n, T, in_dim)`` minibatch in training, or the ``(n, 1, T, in_dim)``
    stack of single windows row-exact inference feeds it (see
    :meth:`~repro.ml.nn.model._BaseClassifier.predict_rows`).
    ``backward`` accepts the gradient of the full ``(n, T, hidden)`` hidden
    sequence (callers that only use the last step pass zeros elsewhere).
    Only a ``training=True`` forward keeps the per-step activations BPTT
    needs.
    """

    def __init__(self, in_dim: int, hidden: int,
                 rng: Optional[np.random.Generator] = None):
        if in_dim < 1 or hidden < 1:
            raise ValueError("layer dimensions must be positive")
        rng = rng or np.random.default_rng()
        scale = 1.0 / np.sqrt(in_dim + hidden)
        self.hidden = hidden
        self.Wx = rng.normal(0.0, scale, size=(in_dim, 4 * hidden))
        self.Wh = rng.normal(0.0, scale, size=(hidden, 4 * hidden))
        self.b = np.zeros(4 * hidden)
        self.b[hidden:2 * hidden] = 1.0  # forget-gate bias
        self.gWx = np.zeros_like(self.Wx)
        self.gWh = np.zeros_like(self.Wh)
        self.gb = np.zeros_like(self.b)
        self._cache = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim < 3:
            raise ValueError(
                f"LSTM input must be (..., T, d), got shape {x.shape}")
        *lead, T, _ = x.shape
        H = self.hidden
        h = np.zeros((*lead, H))
        c = np.zeros((*lead, H))
        h_seq = np.zeros((*lead, T, H))
        caches = [] if training else None
        for t in range(T):
            gates = x[..., t, :] @ self.Wx + h @ self.Wh + self.b
            i = _sigmoid(gates[..., 0 * H:1 * H])
            f = _sigmoid(gates[..., 1 * H:2 * H])
            g = np.tanh(gates[..., 2 * H:3 * H])
            o = _sigmoid(gates[..., 3 * H:4 * H])
            c_next = f * c + i * g
            tanh_c = np.tanh(c_next)
            h_next = o * tanh_c
            if training:
                caches.append((x[:, t, :], h, c, i, f, g, o, c_next,
                               tanh_c))
            h, c = h_next, c_next
            h_seq[..., t, :] = h
        self._cache = (caches, x.shape) if training else None
        return h_seq

    def backward(self, grad: np.ndarray) -> np.ndarray:
        caches, x_shape = _require_training_forward(self._cache, self)
        n, T, _ = x_shape
        H = self.hidden
        self.gWx[...] = 0.0
        self.gWh[...] = 0.0
        self.gb[...] = 0.0
        grad_x = np.zeros(x_shape)
        dh_next = np.zeros((n, H))
        dc_next = np.zeros((n, H))
        for t in range(T - 1, -1, -1):
            x_t, h_prev, c_prev, i, f, g, o, c_next, tanh_c = caches[t]
            dh = grad[:, t, :] + dh_next
            do = dh * tanh_c
            dc = dc_next + dh * o * (1.0 - tanh_c ** 2)
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            dc_next = dc * f
            d_gates = np.concatenate([
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                dg * (1.0 - g ** 2),
                do * o * (1.0 - o),
            ], axis=1)
            self.gWx += x_t.T @ d_gates
            self.gWh += h_prev.T @ d_gates
            self.gb += d_gates.sum(axis=0)
            grad_x[:, t, :] = d_gates @ self.Wx.T
            dh_next = d_gates @ self.Wh.T
        return grad_x

    @property
    def params(self) -> List[np.ndarray]:
        return [self.Wx, self.Wh, self.b]

    @property
    def grads(self) -> List[np.ndarray]:
        return [self.gWx, self.gWh, self.gb]
