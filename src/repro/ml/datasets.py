"""Dataset construction for the ML baseline monitors (Eqs. 7 and 8).

The DT/MLP monitors classify single cycles: input ``(x_t, u_t)``, output
"will any hazard occur at a future time of this simulation?" (Eq. 7).  The
LSTM monitor consumes sliding windows of ``k`` cycles (Eq. 8).  Labels come
from the ground-truth hazard annotation of each trace; the multi-class
variant (Section VI-1) predicts the *type* of the upcoming hazard instead of
a binary flag.

Both builders fan out with ``workers=``: the trace stream is cut into
chunks of :data:`~repro.parallel.LOCKSTEP_WIDTH` traces by
:func:`~repro.parallel.map_chunks` — the same chunks in-process and on a
forked pool — and per-chunk blocks are concatenated in chunk order, so the
stacked ``(X, y)`` is element-wise identical for every worker count.  The
matrices live in memory: at the paper's full scale the fold-0 training
split is ~76 MB as point rows and ~440 MB as k=6 windows.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from ..parallel import lockstep_width, map_chunks
from ..simulation.features import FEATURE_NAMES, context_matrix

__all__ = ["FEATURE_NAMES", "trace_features", "point_labels",
           "build_point_dataset", "build_window_dataset"]


def trace_features(trace) -> np.ndarray:
    """Per-cycle feature matrix ``(n, len(FEATURE_NAMES))`` of a trace.

    Delegates to the shared
    :func:`~repro.simulation.features.context_matrix`, so training data is
    cycle-for-cycle identical to the context stream replay (and the live
    loop) feeds the monitors.
    """
    return context_matrix(trace)


def point_labels(trace, multiclass: bool = False) -> np.ndarray:
    """Eq. 7 labels: positive when a hazard occurs at any future time.

    Binary: 1 where some ground-truth hazardous sample exists at ``t' >= t``.
    Multi-class: 0 = safe, otherwise the type (1 = H1, 2 = H2) of the nearest
    hazardous sample at or after ``t``.
    """
    label = trace.hazard_label
    hazardous = label.hazardous.astype(bool)
    n = len(hazardous)
    if not multiclass:
        # suffix-any via reversed cumulative maximum
        return np.maximum.accumulate(hazardous[::-1])[::-1].astype(int)
    out = np.zeros(n, dtype=int)
    upcoming = 0
    for t in range(n - 1, -1, -1):
        if hazardous[t]:
            upcoming = int(label.hazard_type[t])
        out[t] = upcoming
    return out


# ----------------------------------------------------------------------
# per-chunk extraction kernels
# ----------------------------------------------------------------------
#
# These are the only places features and labels are stacked, one chunk of
# traces at a time — in-process or in a forked worker — so the worker count
# can change wall-clock time, never a single matrix element.  Each returns
# the chunk's ``(X, y)`` block, or None when the chunk yields no rows.

def _point_block(traces: List, multiclass: bool
                 ) -> Tuple[np.ndarray, np.ndarray]:
    return (np.concatenate([trace_features(trace) for trace in traces]),
            np.concatenate([point_labels(trace, multiclass=multiclass)
                            for trace in traces]))


def _window_block(traces: List, k: int, multiclass: bool
                  ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    xs: List[np.ndarray] = []
    ys: List[np.ndarray] = []
    for trace in traces:
        features = trace_features(trace)
        labels = point_labels(trace, multiclass=multiclass)
        if len(features) < k:
            continue  # too short to yield a full window (paper: 30 min)
        windows = np.lib.stride_tricks.sliding_window_view(
            features, (k, features.shape[1])).squeeze(axis=1)
        xs.append(windows.copy())
        ys.append(labels[k - 1:])
    if not xs:
        return None
    return np.concatenate(xs), np.concatenate(ys)


def _stack_blocks(traces, workers: Optional[int], extract,
                  empty_message: str) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate the non-empty per-chunk ``(X, y)`` blocks in chunk
    order."""
    blocks = [block for block in map_chunks(extract, traces,
                                            lockstep_width(), workers)
              if block is not None]
    if not blocks:
        raise ValueError(empty_message)
    return (np.concatenate([x for x, _ in blocks]),
            np.concatenate([y for _, y in blocks]))


# ----------------------------------------------------------------------
# public builders
# ----------------------------------------------------------------------

def build_point_dataset(traces: Iterable, multiclass: bool = False,
                        workers: Optional[int] = None
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Stacked (X, y) over all cycles of all traces (Eq. 7), element-wise
    identical for every ``workers`` count."""
    def extract(chunk):
        return _point_block(chunk, multiclass)

    return _stack_blocks(traces, workers, extract, "no traces supplied")


def build_window_dataset(traces: Iterable, k: int = 6,
                         multiclass: bool = False,
                         workers: Optional[int] = None
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """Sliding-window (X, y) with ``X[i]`` of shape (k, D) (Eq. 8).

    The window at position ``t`` covers cycles ``[t-k+1, t]`` and carries the
    label of cycle ``t``; the first ``k-1`` cycles of each trace yield no
    sample (the paper's LSTM needs 30 minutes of history) and traces shorter
    than ``k`` yield none at all.  See :func:`build_point_dataset` for the
    ``workers`` contract.
    """
    if k < 1:
        raise ValueError(f"window k must be >= 1, got {k}")

    def extract(chunk):
        return _window_block(chunk, k, multiclass)

    return _stack_blocks(traces, workers, extract,
                         "no traces long enough for the window size")
