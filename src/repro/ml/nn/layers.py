"""Feed-forward neural-network layers (numpy, from scratch).

Minimal layer zoo needed for the paper's MLP baseline monitor: dense
(fully-connected) layers, ReLU, and inverted dropout.  Each layer exposes
``forward``/``backward`` plus its parameter and gradient arrays for the
optimizer.  Only a ``training=True`` forward keeps what ``backward`` needs;
an inference forward drops it, so a fitted model (and every per-user
clone of it) carries parameters, not activations.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

__all__ = ["Layer", "Dense", "ReLU", "Dropout"]


def _require_training_forward(state, layer: "Layer"):
    """*state* cached by the last forward, or a RuntimeError when that
    forward was an inference one (it caches nothing to differentiate)."""
    if state is None:
        raise RuntimeError(f"{type(layer).__name__}.backward needs a "
                           "preceding forward(..., training=True)")
    return state


class Layer:
    """Base layer: stateless by default."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def params(self) -> List[np.ndarray]:
        return []

    @property
    def grads(self) -> List[np.ndarray]:
        return []


class Dense(Layer):
    """Affine layer ``y = x W + b`` with He-normal initialisation."""

    def __init__(self, in_dim: int, out_dim: int,
                 rng: Optional[np.random.Generator] = None):
        if in_dim < 1 or out_dim < 1:
            raise ValueError("layer dimensions must be positive")
        rng = rng or np.random.default_rng()
        self.W = rng.normal(0.0, np.sqrt(2.0 / in_dim), size=(in_dim, out_dim))
        self.b = np.zeros(out_dim)
        self.gW = np.zeros_like(self.W)
        self.gb = np.zeros_like(self.b)
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._x = x if training else None
        return x @ self.W + self.b

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x = _require_training_forward(self._x, self)
        self.gW[...] = x.T @ grad
        self.gb[...] = grad.sum(axis=0)
        return grad @ self.W.T

    @property
    def params(self) -> List[np.ndarray]:
        return [self.W, self.b]

    @property
    def grads(self) -> List[np.ndarray]:
        return [self.gW, self.gb]


class ReLU(Layer):
    def __init__(self):
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        mask = x > 0
        self._mask = mask if training else None
        return x * mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad * _require_training_forward(self._mask, self)


class Dropout(Layer):
    """Inverted dropout: active only during training."""

    def __init__(self, rate: float, rng: Optional[np.random.Generator] = None):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng or np.random.default_rng()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad
        return grad * self._mask
