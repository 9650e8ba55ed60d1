"""Trainable classifiers assembled from the layer zoo.

- :class:`MLPClassifier`: the paper's MLP monitor architecture — two hidden
  layers (256, 128) with ReLU, dropout regularisation, a softmax head,
  trained with Adam and early stopping on a held-out validation split
  (Section V-C4).
- :class:`LSTMClassifier`: the paper's stacked LSTM monitor — LSTM(128) ->
  LSTM(64) over k-step windows, softmax head over the last hidden state.
- :class:`Standardizer`: per-feature z-scoring shared by both.

Training and validation forwards run whole minibatches (BLAS gemm).
Offline evaluation and serving go through
:meth:`_BaseClassifier.predict_rows`, whose class for every row equals a
one-row :meth:`~_BaseClassifier.predict` call, whatever the number of
rows.  Two paths give it:

- **Row-exact forwards.**  The rows pass through the layer forwards with
  a singleton row axis, ``X[block, None]``; NumPy makes one BLAS gemv per
  row for that shape, the call a one-row ``predict`` makes, so every
  logit is bit-identical.  This is the LSTM's only path, and the
  reference that settles every row the certificate below leaves open.
- **Certified whole-block forwards** (pure feed-forward stacks: only
  ``Dense``, ``ReLU`` and ``Dropout``, i.e. the MLP).  Each block of rows
  runs one gemm per layer.  A gemm rounds differently from a gemv, so
  its logits are not bit-identical; its *class* is kept only where an
  a-priori forward-error bound proves it equals the gemv class.

The certificate.  Let u = 2^-53 and γ(m) = m·u / (1 − m·u).  For any
summation order, with or without FMA, a computed dot product of m terms
lies within γ(m)·Σ|terms| of the exact one (Higham, *Accuracy and
Stability of Numerical Algorithms*, Thm 3.1 and Lemma 3.4); underflow
adds at most an absolute η.  A Dense output ``x @ W + b`` is such a sum
of n + 1 terms for fan-in n, in both paths.  Both paths start from the
same standardised row x.  Per row, let A bound every activation either
path computes and δ bound how far the two paths' activations differ;
start from A = A0 = ‖x‖∞ and δ = 0.  With C the largest column 1-norm
of W, β = max|b|, g = γ(n + 1) and η = 2^-1022·(C + n + 2) (what
underflow can lose, also with flush-to-zero or denormals-are-zero), a
Dense layer gives::

    |each path's z − (its own input) @ W − b| <= g·(A·C + β) + η
    A <- (1 + g)·(A·C + β) + η
    δ <- 2·g·(A·C + β) + (1 + g)·δ·C + 2·η

(the input difference moves an output by at most δ·C; the factor
1 + g is slack).  ReLU is 1-Lipschitz and never grows a magnitude, and
inference Dropout is the identity, so both leave (A, δ) as they are,
whatever sign a zero takes.  If the whole-block logits put class p more
than 2·δ above every other class, the gemv logits put p strictly on
top, so both paths return p.  :func:`_certificate` folds the recurrence
into δ = D1·A0 + D0 per model, once, when the weights arrive;
:meth:`_BaseClassifier.predict_rows` demands a margin of
2·:data:`_SAFETY`·δ, which absorbs the rounding of the bound itself and
of the logit subtraction.  It also demands A0 <= T, a limit under which
no activation of either path can overflow.  A row whose margin is
inside the bound, or whose logits or bound are not finite, takes the
row-exact forwards.

The class is the argmax of the logits.  ``softmax`` is monotone, but in
floating point it can round two close logits to one probability, so
:meth:`_BaseClassifier.predict` reads the class off the logits too.

The LSTM stays row-exact.  A bound through its recurrent layers would
also have to assume an accuracy for NumPy's ``exp`` and ``tanh``, which
IEEE 754 leaves open and which changes with NumPy's SIMD dispatch; the
certificate above needs nothing but correctly rounded ``+`` and ``*``.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .layers import Dense, Dropout, Layer, ReLU
from .losses import softmax, softmax_cross_entropy
from .lstm import LSTMLayer
from .optim import Adam

__all__ = ["Standardizer", "MLPClassifier", "LSTMClassifier", "ROW_BLOCK",
           "stacked_rows_exact"]

#: rows per forward in :meth:`_BaseClassifier.predict_rows`, stacked or
#: whole-block; bounds the transient activations (an LSTM block holds
#: ``ROW_BLOCK * T * 4H`` gate values per step; 64-row gemm blocks were
#: no faster)
ROW_BLOCK = 32

#: factor on the certificate's margin, for the rounding of the bound
#: itself and of the logit subtraction
_SAFETY = 2.0
#: no activation bound may pass this, so neither path can overflow
_HEADROOM = float(np.finfo(float).max) / 4
_U = 2.0 ** -53
_TINY = 2.0 ** -1022


def _certificate(layers: Sequence[Layer]
                 ) -> Optional[Tuple[float, float, float]]:
    """``(T, D1, D0)`` of the module docstring's certificate for a pure
    feed-forward stack: rows with ``A0 = ‖x‖∞ <= T`` cannot overflow, and
    the whole-block and row-exact logits differ by at most
    ``D1 * A0 + D0``.  ``None`` for any other stack (an LSTM), or when a
    weight is not finite.

    The per-layer recurrence is affine in A0, so it folds into scalars
    here: ``A = a * A0 + c`` and ``δ = d * A0 + e``, with the running
    maxima of ``a`` and ``c`` bounding A at every layer.
    """
    if not any(type(layer) is Dense for layer in layers) or any(
            type(layer) not in (Dense, ReLU, Dropout) for layer in layers):
        return None
    a, c, d, e = 1.0, 0.0, 0.0, 0.0
    a_max, c_max = a, c
    for layer in layers:
        if type(layer) is not Dense:
            continue  # ReLU and inference Dropout keep (A, δ)
        n = layer.W.shape[0]
        col_norm = float(np.abs(layer.W).sum(axis=0).max())
        beta = float(np.abs(layer.b).max())
        if not (np.isfinite(col_norm) and np.isfinite(beta)):
            return None
        g = (n + 1) * _U / (1.0 - (n + 1) * _U)
        eta = _TINY * (col_norm + n + 2)
        a_in, c_in = a * col_norm, c * col_norm + beta
        a, c = (1.0 + g) * a_in, (1.0 + g) * c_in + eta
        d, e = (2.0 * g * a_in + (1.0 + g) * d * col_norm,
                2.0 * g * c_in + (1.0 + g) * e * col_norm + 2.0 * eta)
        a_max, c_max = max(a_max, a), max(c_max, c)
    return (_HEADROOM - c_max) / a_max, d, e


@functools.lru_cache(maxsize=None)
def stacked_rows_exact(shape: Tuple[int, ...]) -> bool:
    """Whether stacked single-row products ``X[:, None] @ W`` equal the
    separate products ``X[i:i + 1] @ W`` bit for bit on the running BLAS,
    for a weight ``W`` of *shape*.

    NumPy evaluates a stack of single-row products as one BLAS gemv per
    row, the same call a one-row product makes, so this holds on every
    build measured so far.  A seeded probe runs on the first use of each
    shape, which is when a fitted model of that shape enters the process
    (:meth:`_BaseClassifier._probe_blas`); the verdict is kept for the
    process.
    """
    rng = np.random.default_rng(0)
    W = rng.standard_normal(shape)
    # one row in: the probe rows do not start on the buffer's alignment
    X = rng.standard_normal((ROW_BLOCK + 1, shape[0]))[1:]
    per_row = np.concatenate([X[i:i + 1] @ W for i in range(len(X))])
    return bool(np.array_equal((X[:, None] @ W)[:, 0], per_row))


class Standardizer:
    """Per-feature z-scoring; tolerant of constant features."""

    def __init__(self):
        self.mean: Optional[np.ndarray] = None
        self.std: Optional[np.ndarray] = None

    def fit(self, X: np.ndarray) -> "Standardizer":
        flat = X.reshape(-1, X.shape[-1])
        self.mean = flat.mean(axis=0)
        std = flat.std(axis=0)
        self.std = np.where(std < 1e-9, 1.0, std)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.mean is None:
            raise RuntimeError("standardizer is not fitted")
        # in place: each step is correctly rounded, so the values are
        # those of ``(X - mean) / std`` without its second temporary
        out = X - self.mean
        out /= self.std
        return out


class _BaseClassifier:
    """Shared minibatch training loop with early stopping."""

    def __init__(self, n_classes: int, lr: float, batch_size: int,
                 max_epochs: int, patience: int, seed: Optional[int]):
        if n_classes < 2:
            raise ValueError(f"need >= 2 classes, got {n_classes}")
        if batch_size < 1 or max_epochs < 1 or patience < 1:
            raise ValueError("batch_size, max_epochs and patience must be >= 1")
        self.n_classes = n_classes
        self.lr = lr
        self.batch_size = batch_size
        self.max_epochs = max_epochs
        self.patience = patience
        self.rng = np.random.default_rng(seed)
        self.scaler = Standardizer()
        self.layers: List[Layer] = []
        self.history: List[Tuple[float, float]] = []  # (train, val) loss
        #: :func:`_certificate` of the fitted weights, set where they
        #: arrive (:meth:`_probe_blas`) and never pickled
        self._certificate: Optional[Tuple[float, float, float]] = None

    # subclass hooks -----------------------------------------------------
    def _build(self, in_shape: Tuple[int, ...]) -> None:
        raise NotImplementedError

    def _forward(self, X: np.ndarray, training: bool) -> np.ndarray:
        out = X
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def _backward(self, grad: np.ndarray) -> None:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)

    # training -----------------------------------------------------------
    def fit(self, X, y, val_fraction: float = 0.1) -> "_BaseClassifier":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        if len(X) < 10:
            raise ValueError("need at least 10 samples to train")
        if y.min() < 0 or y.max() >= self.n_classes:
            raise ValueError("labels out of range for n_classes")
        self.scaler.fit(X)
        X = self.scaler.transform(X)
        self._build(X.shape[1:])

        n_val = max(int(len(X) * val_fraction), 1)
        order = self.rng.permutation(len(X))
        val_idx, train_idx = order[:n_val], order[n_val:]
        X_train, y_train = X[train_idx], y[train_idx]
        X_val, y_val = X[val_idx], y[val_idx]

        params: List[np.ndarray] = []
        for layer in self.layers:
            params.extend(layer.params)
        optimizer = Adam(params, lr=self.lr)

        best_val = np.inf
        best_weights = [p.copy() for p in params]
        stall = 0
        self.history = []
        for _ in range(self.max_epochs):
            perm = self.rng.permutation(len(X_train))
            epoch_loss = 0.0
            n_batches = 0
            for start in range(0, len(X_train), self.batch_size):
                idx = perm[start:start + self.batch_size]
                logits = self._forward(X_train[idx], training=True)
                loss, grad = softmax_cross_entropy(logits, y_train[idx])
                self._backward(grad)
                grads: List[np.ndarray] = []
                for layer in self.layers:
                    grads.extend(layer.grads)
                optimizer.step(grads)
                epoch_loss += loss
                n_batches += 1
            val_logits = self._forward(X_val, training=False)
            val_loss, _ = softmax_cross_entropy(val_logits, y_val)
            self.history.append((epoch_loss / max(n_batches, 1), val_loss))
            if val_loss < best_val - 1e-5:
                best_val = val_loss
                best_weights = [p.copy() for p in params]
                stall = 0
            else:
                stall += 1
                if stall >= self.patience:
                    break
        for p, best in zip(params, best_weights):
            p[...] = best
        self._probe_blas()
        return self

    # persistence --------------------------------------------------------
    def export_params(self) -> List[np.ndarray]:
        """Flat list of fitted arrays: scaler mean, scaler std, then every
        layer parameter in forward order — the layout
        :func:`repro.ml.training.monitor_state` compares and the serving
        registry persists."""
        if not self.layers:
            raise RuntimeError("model is not fitted")
        params = [self.scaler.mean, self.scaler.std]
        for layer in self.layers:
            params.extend(layer.params)
        return params

    def load_params(self, in_shape: Tuple[int, ...],
                    params: Sequence[np.ndarray]) -> "_BaseClassifier":
        """Rebuild a fitted model from :meth:`export_params` output.

        Builds the layer stack for *in_shape* (the post-scaling feature
        shape ``X.shape[1:]`` seen by :meth:`fit`), then copies every
        array into place with strict count/shape checks — the inverse of
        :meth:`export_params`, so a round-tripped model predicts
        bit-identically to the original.
        """
        params = [np.asarray(p, dtype=float) for p in params]
        if len(params) < 2:
            raise ValueError("need at least scaler mean and std")
        self.scaler.mean = params[0]
        self.scaler.std = params[1]
        self._build(tuple(in_shape))
        targets: List[np.ndarray] = []
        for layer in self.layers:
            targets.extend(layer.params)
        saved = params[2:]
        if len(saved) != len(targets):
            raise ValueError(
                f"parameter count mismatch: saved {len(saved)}, model "
                f"expects {len(targets)}")
        for target, value in zip(targets, saved):
            if target.shape != value.shape:
                raise ValueError(
                    f"parameter shape mismatch: saved {value.shape}, model "
                    f"expects {target.shape}")
            target[...] = value
        self._probe_blas()
        return self

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # derived from the weights, and rebuilt from them on arrival
        state.pop("_certificate", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._probe_blas()

    def _probe_blas(self) -> None:
        """Run :func:`stacked_rows_exact` for every weight shape now, and
        derive the weights' :func:`_certificate`.

        Called wherever fitted weights enter a process (:meth:`fit`,
        :meth:`load_params`, unpickling), so the probe's transient
        arrays -- about 1 MB for the LSTM -- are paid while the model
        loads, not inside the first :meth:`predict_rows` call, which in
        a serving process is the first tick.  A certified stack also
        classifies a block of zeros, so BLAS sets up its gemm buffers and
        the certificate's NumPy loops are paged in now too.
        """
        for layer in self.layers:
            for p in layer.params:
                if p.ndim == 2:
                    stacked_rows_exact(p.shape)
        self._certificate = _certificate(self.layers)
        if self._certificate is not None:
            first = next(layer for layer in self.layers
                         if type(layer) is Dense)
            self._classify(np.zeros((ROW_BLOCK, first.W.shape[0])))

    # inference ----------------------------------------------------------
    def _logits(self, X) -> np.ndarray:
        if not self.layers:
            raise RuntimeError("model is not fitted")
        X = self.scaler.transform(np.asarray(X, dtype=float))
        return self._forward(X, training=False)

    def predict_proba(self, X) -> np.ndarray:
        return softmax(self._logits(X))

    def predict(self, X) -> np.ndarray:
        """Class per row: the argmax of the logits (see the module
        docstring for why not of :meth:`predict_proba`)."""
        return np.argmax(self._logits(X), axis=1)

    def predict_rows(self, X) -> np.ndarray:
        """Per-row class predictions, each equal to calling
        :meth:`predict` on that row alone.

        A certified stack (the MLP) runs whole-block forwards and keeps
        every row whose class the forward-error certificate proves; the
        rest, and every LSTM row, take the row-exact forwards (see the
        module docstring).  Standardisation runs once, in place, and both
        paths read the same standardised rows.
        """
        if not self.layers:
            raise RuntimeError("model is not fitted")
        return self._classify(self.scaler.transform(
            np.asarray(X, dtype=float)))

    def _classify(self, X: np.ndarray) -> np.ndarray:
        """Classes of standardised rows: certified whole-block forwards
        where the model has a certificate, row-exact forwards for every
        other row.  A single row is cheapest through its own one-row
        forward, so it takes that directly."""
        if self._certificate is None or len(X) == 1:
            return self._rows_exact(X)
        limit, d1, d0 = self._certificate
        logits = np.empty((len(X), self.n_classes))
        # the discarded logits of non-finite rows may overflow or be NaN
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(X), ROW_BLOCK):
                logits[start:start + ROW_BLOCK] = self._block_logits(
                    X[start:start + ROW_BLOCK])
            norms = np.maximum(X.max(axis=1), -X.min(axis=1))  # ‖x‖∞
            # certified: the top class is the only one within the
            # margin of it (a NaN logit or bound leaves none within)
            margin = 2.0 * _SAFETY * (d1 * norms + d0)
            near = logits.max(axis=1, keepdims=True) - logits \
                <= margin[:, None]
            certified = ((near.sum(axis=1) == 1) & (norms <= limit)
                         & np.isfinite(logits).all(axis=1))
        out = np.argmax(logits, axis=1)
        if not certified.all():
            open_rows = ~certified
            out[open_rows] = self._rows_exact(X[open_rows])
        return out

    def _block_logits(self, block: np.ndarray) -> np.ndarray:
        """Logits of a feed-forward stack for a block of standardised
        rows: one gemm per Dense layer, bias add and ReLU in place."""
        h = block
        for layer in self.layers:
            if type(layer) is Dense:
                h = h @ layer.W
                h += layer.b
            elif type(layer) is ReLU:
                h = np.maximum(h, 0.0, out=None if h is block else h)
        return h

    def _rows_exact(self, X: np.ndarray) -> np.ndarray:
        """Classes of standardised rows through the row-exact forwards.

        The rows pass through the layer forwards in blocks with a
        singleton row axis, ``X[block, None]``; NumPy runs that stack of
        single-row products as one BLAS gemv per row, the very call a
        one-row :meth:`predict` makes, so every logit is bit-identical.
        Blocks hold :data:`ROW_BLOCK` rows, which bounds the transient
        activations.  If any weight shape fails
        :func:`stacked_rows_exact` on the running BLAS, every block holds
        one row, which is exactly the one-row call.
        """
        exact = all(stacked_rows_exact(p.shape) for layer in self.layers
                    for p in layer.params if p.ndim == 2)
        step = ROW_BLOCK if exact else 1
        out = np.empty(len(X), dtype=np.intp)
        for start in range(0, len(X), step):
            logits = self._forward(X[start:start + step, None],
                                   training=False)
            out[start:start + step] = np.argmax(logits[:, 0], axis=1)
        return out


class MLPClassifier(_BaseClassifier):
    """The paper's MLP monitor: Dense(256)-ReLU-Dense(128)-ReLU-softmax."""

    def __init__(self, hidden: Sequence[int] = (256, 128), n_classes: int = 2,
                 lr: float = 1e-3, dropout: float = 0.2, batch_size: int = 256,
                 max_epochs: int = 40, patience: int = 5,
                 seed: Optional[int] = None):
        super().__init__(n_classes, lr, batch_size, max_epochs, patience, seed)
        if not hidden:
            raise ValueError("need at least one hidden layer")
        self.hidden = tuple(hidden)
        self.dropout = dropout

    def _build(self, in_shape: Tuple[int, ...]) -> None:
        (in_dim,) = in_shape
        self.layers = []
        prev = in_dim
        for width in self.hidden:
            self.layers.append(Dense(prev, width, rng=self.rng))
            self.layers.append(ReLU())
            if self.dropout > 0:
                self.layers.append(Dropout(self.dropout, rng=self.rng))
            prev = width
        self.layers.append(Dense(prev, self.n_classes, rng=self.rng))


class _LastStep(Layer):
    """Select the final time step of an (..., T, H) sequence."""

    def __init__(self):
        self._shape = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._shape = x.shape
        return x[..., -1, :]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        full = np.zeros(self._shape)
        full[:, -1, :] = grad
        return full


class LSTMClassifier(_BaseClassifier):
    """The paper's LSTM monitor: stacked LSTM(128, 64) over k-step windows."""

    def __init__(self, hidden: Sequence[int] = (128, 64), n_classes: int = 2,
                 lr: float = 1e-3, batch_size: int = 256, max_epochs: int = 30,
                 patience: int = 4, seed: Optional[int] = None):
        super().__init__(n_classes, lr, batch_size, max_epochs, patience, seed)
        if not hidden:
            raise ValueError("need at least one LSTM layer")
        self.hidden = tuple(hidden)

    def _build(self, in_shape: Tuple[int, ...]) -> None:
        (_, in_dim) = in_shape  # (T, D)
        self.layers = []
        prev = in_dim
        for width in self.hidden:
            self.layers.append(LSTMLayer(prev, width, rng=self.rng))
            prev = width
        self.layers.append(_LastStep())
        self.layers.append(Dense(prev, self.n_classes, rng=self.rng))
