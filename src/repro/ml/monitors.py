"""ML baseline monitors: DT, MLP and LSTM wrapped as safety monitors.

Each monitor embeds a trained classifier and implements the same
:class:`~repro.core.monitor.SafetyMonitor` interface as the context-aware
monitor, so the evaluation harness treats them interchangeably.

Binary classifiers can only flag a command as unsafe; the hazard *type*
needed by the mitigation algorithm is then inferred from the glucose context
(below target -> H1, above -> H2).  The multi-class variants predict the
type directly (the Section VI-1 comparison).

Each monitor's :meth:`~repro.core.monitor.SafetyMonitor.observe_batch`
classifies a whole context batch at once, with hazard inference as array
arithmetic.  The DT runs its vectorized flat-tree ``predict`` (exact
comparisons, batch-size invariant).  The MLP classifies every cycle, and
the LSTM every k-cycle sliding window, through
:meth:`~repro.ml.nn.model._BaseClassifier.predict_rows`, whose class for
every row is the model's one-row ``predict`` class: the MLP's certified
whole-block forwards keep only classes a forward-error bound proves, and
row-exact forwards, bit-identical to the one-row call, settle the other
rows and every LSTM window.  The LSTM's only per-column state is its
last ``k - 1`` feature rows.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..core.monitor import MonitorState, SafetyMonitor
from ..hazards import HazardType
from .datasets import FEATURE_NAMES
from .nn import LSTMClassifier, MLPClassifier
from .tree import DecisionTreeClassifier

__all__ = ["DTMonitor", "MLPMonitor", "LSTMMonitor"]


def _verdicts(prediction: np.ndarray, bg: np.ndarray, bg_target: float,
              multiclass: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Verdicts of a prediction matrix: ``(alerts, hazards)`` with hazard
    code 0 where the prediction is safe.  A multi-class prediction is the
    hazard type; a binary one takes it from the glucose context (below
    target: H1, otherwise H2)."""
    alerts = prediction != 0
    if multiclass:
        return alerts, np.where(alerts, prediction, 0)
    h1, h2 = int(HazardType.H1), int(HazardType.H2)
    return alerts, np.where(alerts, np.where(bg < bg_target, h1, h2), 0)


class _PointMonitor(SafetyMonitor):
    """Monitor over single-cycle features (DT and MLP)."""

    def __init__(self, model, name: str, multiclass: bool = False,
                 bg_target: float = 120.0):
        self.model = model
        self.name = name
        self.multiclass = multiclass
        self.bg_target = bg_target

    def _predict_rows(self, features: np.ndarray) -> np.ndarray:
        """Per-row class predictions for an ``(n_rows, D)`` feature stack,
        each equal to the model's one-row ``predict``.

        Default: the model's ``predict_rows`` (see
        :meth:`~repro.ml.nn.model._BaseClassifier.predict_rows` for how
        whole-block forwards keep that equality).  Rows are independent,
        so callers may stack any number of columns into one matrix
        without changing a single prediction.
        """
        return self.model.predict_rows(features).astype(int, copy=False)

    def init_state(self, n_cols: int) -> MonitorState:
        """Single-cycle classifiers: no cross-cycle state."""
        return {}

    def observe_batch(self, batch, state: Optional[MonitorState] = None
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """Classify every cycle of a context batch: every column's
        feature matrix stacked into one row-major call to
        :meth:`_predict_rows` (column b occupies row block b; rows are
        independent, so wide live batches like the online service's
        ``(1, n_users)`` tick cost one call, not ``n_users`` Python
        iterations), hazard inference as array arithmetic."""
        n_steps, n_d, n_cols = batch.features.shape
        stacked = np.ascontiguousarray(
            np.moveaxis(batch.features, 2, 0)).reshape(n_steps * n_cols, n_d)
        prediction = self._predict_rows(stacked).reshape(n_cols, n_steps).T
        return _verdicts(prediction, batch.bg, self.bg_target,
                         self.multiclass)


class DTMonitor(_PointMonitor):
    def __init__(self, model: DecisionTreeClassifier, multiclass: bool = False,
                 bg_target: float = 120.0):
        super().__init__(model, "DT", multiclass, bg_target)

    def _predict_rows(self, features: np.ndarray) -> np.ndarray:
        # the flat-tree predict is batch-size invariant (pure threshold
        # comparisons), so the whole column classifies in one call
        return self.model.predict(features).astype(int, copy=False)


class MLPMonitor(_PointMonitor):
    def __init__(self, model: MLPClassifier, multiclass: bool = False,
                 bg_target: float = 120.0):
        super().__init__(model, "MLP", multiclass, bg_target)


class LSTMMonitor(SafetyMonitor):
    """Monitor over sliding windows of the last ``k`` cycles."""

    def __init__(self, model: LSTMClassifier, k: int = 6,
                 multiclass: bool = False, bg_target: float = 120.0):
        if k < 1:
            raise ValueError(f"window k must be >= 1, got {k}")
        self.model = model
        self.k = k
        self.multiclass = multiclass
        self.bg_target = bg_target
        self.name = "LSTM"

    def init_state(self, n_cols: int) -> MonitorState:
        """Each column's last ``k - 1`` feature rows, time-major like
        ``ContextBatch.features``, and how many of them are filled."""
        return {"window": np.zeros((self.k - 1, len(FEATURE_NAMES), n_cols)),
                "filled": np.zeros(n_cols, dtype=np.intp)}

    def observe_batch(self, batch, state: Optional[MonitorState] = None
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """Classify the k-cycle window ending at every cycle of a batch.

        Every k-cycle window of each column's history (its *state* rows,
        then the batch) that ends in the batch and is full is gathered
        with ``sliding_window_view`` and classified in one row-exact
        :meth:`~repro.ml.nn.model._BaseClassifier.predict_rows` call.
        Cycles before a column has seen ``k`` stay silent (not enough
        history yet).
        """
        n_steps, n_cols = batch.shape
        if state is None:
            state = self.init_state(n_cols)
        prediction = np.zeros(batch.shape, dtype=np.intp)
        if n_steps:
            history = np.concatenate([state["window"], batch.features])
            # (n_steps, D, B, k) -> (n_steps, B, k, D): each window
            # time-ordered
            windows = sliding_window_view(history, self.k, axis=0).transpose(
                0, 2, 3, 1)
            full = (state["filled"]
                    + np.arange(1, n_steps + 1)[:, None]) >= self.k
            prediction[full] = self.model.predict_rows(windows[full])
            state["window"][:] = history[n_steps:]
            state["filled"][:] = np.minimum(state["filled"] + n_steps,
                                            self.k - 1)
        return _verdicts(prediction, batch.bg, self.bg_target,
                         self.multiclass)
