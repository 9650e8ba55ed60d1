"""Canonical per-cycle context reconstruction from recorded traces.

Offline monitor replay (:mod:`repro.simulation.replay`), the live
lock-step engine (:mod:`repro.simulation.vector`) and ML dataset
construction (:mod:`repro.ml.datasets`) all rebuild the monitor's view of
a trace: clean CGM, its finite-difference rate, loop-side IOB bookkeeping
and the post-fault-injection command, plus the one-hot control action.
They used to each carry their own copy of that arithmetic — a drift risk,
since a silent disagreement would make the ML monitors train on features
that differ from what replay (and the live loop) feeds them.  This module
is the single shared implementation every consumer delegates to:
:func:`context_matrix` for one trace, :class:`ContextBatch` for a
lock-step stack of traces, with a trace's per-cycle
:class:`~repro.core.context.ContextVector` stream
(:func:`~repro.simulation.replay.iter_contexts`) defined as the ``B=1``
column view of the same stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

import numpy as np

from ..controllers import ControlAction
from ..core.context import ContextVector
from ..stl import Trace

__all__ = ["FEATURE_NAMES", "context_matrix", "ContextBatch"]

#: feature layout shared by replay, training data and runtime monitors;
#: the names are the STL channel names the Table I rule formulas read
FEATURE_NAMES: Tuple[str, ...] = ("BG", "BG'", "IOB", "IOB'", "rate", "bolus",
                                  "u1", "u2", "u3", "u4")


#: the ``u1..u4`` one-hot columns' action codes, as a column vector
_ACTION_CODES = np.array([[int(act)] for act in ControlAction])


def context_matrix(trace) -> np.ndarray:
    """Per-cycle context matrix ``(n, len(FEATURE_NAMES))`` of a trace.

    Row ``t`` is exactly what the closed loop fed the monitor at cycle
    ``t``: BG is the clean CGM reading, BG' its backward difference
    (0 at the first cycle), IOB/IOB' the loop-side estimates, rate/bolus
    the post-fault-injection command and ``u1..u4`` the one-hot encoding
    of the commanded control action.
    """
    n = len(trace)
    bg_rate = np.zeros(n)
    bg_rate[1:] = np.diff(trace.cgm) / trace.dt
    columns = [trace.cgm, bg_rate, trace.iob, trace.iob_rate,
               trace.cmd_rate, trace.cmd_bolus]
    for act in ControlAction:
        columns.append((trace.action == int(act)).astype(float))
    return np.column_stack(columns)


@dataclass(frozen=True)
class ContextBatch:
    """A lock-step stack of per-cycle context streams.

    ``B`` equal-length traces stacked time-major: ``features[t, :, b]`` is
    exactly the :func:`context_matrix` row the closed loop fed the monitor
    at cycle ``t`` of trace ``b``, with the time stamps and the discrete
    action codes riding along.  This is the input of
    :meth:`repro.core.monitor.SafetyMonitor.observe_batch`; a trace's
    :class:`~repro.core.context.ContextVector` stream
    (:func:`~repro.simulation.replay.iter_contexts`) is the ``B=1``
    special case via :meth:`iter_column`, holding the identical
    floating-point values.

    Attributes
    ----------
    t:
        ``(n_steps, B)`` time stamps in minutes (one column per trace).
    features:
        ``(n_steps, len(FEATURE_NAMES), B)`` stacked context matrices.
    action:
        ``(n_steps, B)`` integer :class:`~repro.controllers.ControlAction`
        codes of the commanded action.
    dt:
        ``(B,)`` control periods; traces of different ``dt`` may share a
        batch (the rates are computed per column before stacking).
    """

    t: np.ndarray
    features: np.ndarray
    action: np.ndarray
    dt: np.ndarray

    @classmethod
    def from_traces(cls, traces: Sequence) -> "ContextBatch":
        """Stack equal-length traces into one batch (column order = input
        order).  Raises ``ValueError`` on an empty or ragged input — the
        batched replay of :mod:`repro.simulation.replay` groups a
        heterogeneous stream into valid batches."""
        traces = list(traces)
        if not traces:
            raise ValueError("cannot build a ContextBatch from zero traces")
        lengths = {len(trace) for trace in traces}
        if len(lengths) != 1:
            raise ValueError(
                f"all traces in a batch must share one length, got "
                f"{sorted(lengths)}")
        return cls(
            t=np.stack([trace.t for trace in traces], axis=1),
            features=np.stack([context_matrix(trace) for trace in traces],
                              axis=2),
            action=np.stack([trace.action for trace in traces], axis=1),
            dt=np.array([float(trace.dt) for trace in traces]))

    @classmethod
    def from_tick(cls, t: float, bg: np.ndarray, bg_rate: np.ndarray,
                  iob: np.ndarray, iob_rate: np.ndarray, rate: np.ndarray,
                  bolus: np.ndarray, action: np.ndarray,
                  dt: float) -> "ContextBatch":
        """One live control cycle as a ``(1, B)`` batch.

        The lock-step simulation engine (:mod:`repro.simulation.vector`)
        builds its per-tick monitor/mitigator input through this
        constructor, so the live batched loop, offline replay and ML
        training all share one feature layout (:data:`FEATURE_NAMES`).
        The channel vectors are stacked as-is — they are the exact floats
        of each row's :class:`~repro.core.context.ContextVector`, and
        :meth:`iter_column` recovers those vectors bit for bit.
        """
        action = np.asarray(action)
        n_cols = len(action)
        features = np.empty((1, len(FEATURE_NAMES), n_cols))
        features[0, :6] = (bg, bg_rate, iob, iob_rate, rate, bolus)
        features[0, 6:] = action == _ACTION_CODES
        return cls(t=np.full((1, n_cols), float(t)), features=features,
                   action=action.reshape(1, n_cols),
                   dt=np.full(n_cols, float(dt)))

    def take_columns(self, columns: np.ndarray) -> "ContextBatch":
        """A new batch holding the given column subset, in the given
        order — used by the live engine to route each monitor group its
        own rows."""
        return ContextBatch(t=self.t[:, columns],
                            features=self.features[:, :, columns],
                            action=self.action[:, columns],
                            dt=self.dt[columns])

    @property
    def shape(self) -> Tuple[int, int]:
        """``(n_steps, B)``."""
        return (self.features.shape[0], self.features.shape[2])

    # named channel views, all (n_steps, B) — the batched monitors index
    # these instead of building a ContextVector per cycle
    @property
    def bg(self) -> np.ndarray:
        return self.features[:, 0, :]

    @property
    def bg_rate(self) -> np.ndarray:
        return self.features[:, 1, :]

    @property
    def iob(self) -> np.ndarray:
        return self.features[:, 2, :]

    @property
    def iob_rate(self) -> np.ndarray:
        return self.features[:, 3, :]

    @property
    def rate(self) -> np.ndarray:
        return self.features[:, 4, :]

    @property
    def bolus(self) -> np.ndarray:
        return self.features[:, 5, :]

    def to_stl_trace(self) -> Trace:
        """The batch as one ``(n_steps, B)`` STL trace, a channel per
        :data:`FEATURE_NAMES` entry (views, no copy) — the input of the
        rules' columnar STL evaluation.  Temporal windows convert with
        the first column's period; pointwise formulas, such as the
        Table I rule bodies, do not read it."""
        return Trace(dict(zip(FEATURE_NAMES,
                              self.features.transpose(1, 0, 2))),
                     dt=float(self.dt[0]))

    def column_features(self, b: int) -> np.ndarray:
        """Contiguous ``(n_steps, len(FEATURE_NAMES))`` feature matrix of
        column *b* — the trace's :func:`context_matrix`."""
        return np.ascontiguousarray(self.features[:, :, b])

    def iter_column(self, b: int) -> Iterator[ContextVector]:
        """Yield column *b* as its per-cycle ContextVector stream, the
        exact values of the batch."""
        features = self.features
        for step in range(features.shape[0]):
            bg, bg_rate, iob, iob_rate, rate, bolus = features[step, :6, b]
            yield ContextVector(
                t=float(self.t[step, b]), bg=float(bg),
                bg_rate=float(bg_rate), iob=float(iob),
                iob_rate=float(iob_rate), rate=float(rate),
                bolus=float(bolus),
                action=ControlAction(int(self.action[step, b])))
