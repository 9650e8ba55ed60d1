"""Boolean and quantitative (robustness) semantics for discrete-time STL.

Both semantics are *pointwise*: evaluating a formula over a
:class:`~repro.stl.signals.Trace` yields one value per sample index, where
index ``t`` answers "does the formula hold at time ``t``?".  The conventional
trace-level verdict is the value at index 0.  A batched trace (channels of
shape ``(n_steps, *batch)``) yields an array of that shape, each column
evaluated as if it were its own trace.

Evaluation is columnar: the only Python loops walk the formula's children
and, for ``U``/``S``, the offsets of the temporal window; every step is one
numpy operation over the whole time-by-batch array.

Temporal windows are expressed in minutes and converted to whole sample steps
using the trace's ``dt``.  At the right edge of a trace we use *weak*
(truncated-window) semantics, standard for offline monitoring of finite
traces: ``G`` reduces over however many samples remain (vacuously true on an
empty window), ``F``/``U`` are false on an empty window.

Robustness follows the usual min/max quantitative semantics; the learning
machinery of :mod:`repro.core.learning` consumes per-predicate robustness
values ``r = mu(x_t) - beta`` exactly as in Eq. 3 of the paper.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .ast import (
    And,
    Atomic,
    Eventually,
    Formula,
    Globally,
    Implies,
    Not,
    Or,
    Predicate,
    Since,
    Until,
)
from .signals import Trace

__all__ = ["satisfaction", "robustness", "satisfied", "trace_robustness"]

Env = Optional[Dict[str, float]]

#: robustness value used for boolean constants (finite so min/max stay finite)
TOP = Predicate.DISCRETE_ROBUSTNESS


def satisfaction(formula: Formula, trace: Trace, env: Env = None) -> np.ndarray:
    """Pointwise boolean satisfaction of *formula* over *trace*.

    Returns a boolean array of the trace's shape (``len(trace)`` entries
    for a single signal).
    """
    return _eval(formula, trace, env, quantitative=False)


def robustness(formula: Formula, trace: Trace, env: Env = None) -> np.ndarray:
    """Pointwise quantitative robustness of *formula* over *trace*."""
    return _eval(formula, trace, env, quantitative=True)


def satisfied(formula: Formula, trace: Trace, env: Env = None) -> bool:
    """Trace-level verdict: satisfaction at the first sample."""
    return bool(satisfaction(formula, trace, env)[0])


def trace_robustness(formula: Formula, trace: Trace, env: Env = None) -> float:
    """Trace-level robustness: robustness at the first sample."""
    return float(robustness(formula, trace, env)[0])


# ----------------------------------------------------------------------
# evaluation core
# ----------------------------------------------------------------------

_COMPARE = {">": np.greater, ">=": np.greater_equal,
            "<": np.less, "<=": np.less_equal}


def _eval(node: Formula, trace: Trace, env: Env, quantitative: bool) -> np.ndarray:
    if isinstance(node, Predicate):
        return _eval_predicate(node, trace, env, quantitative)

    if isinstance(node, (And, Or)):
        # a pairwise fold: min/max (or and/or) of the children in order
        if quantitative:
            fold = np.minimum if isinstance(node, And) else np.maximum
        else:
            fold = np.logical_and if isinstance(node, And) else np.logical_or
        out = _eval(node.children[0], trace, env, quantitative)
        for child in node.children[1:]:
            out = fold(out, _eval(child, trace, env, quantitative))
        return out

    if isinstance(node, Not):
        inner = _eval(node.child, trace, env, quantitative)
        return -inner if quantitative else ~inner

    if isinstance(node, Atomic):
        if quantitative:
            return np.full(trace.shape, TOP if node.value else -TOP)
        return np.full(trace.shape, node.value, dtype=bool)

    if isinstance(node, Implies):
        left = _eval(node.antecedent, trace, env, quantitative)
        right = _eval(node.consequent, trace, env, quantitative)
        if quantitative:
            return np.maximum(-left, right)
        return np.logical_or(~left, right)

    if isinstance(node, (Globally, Eventually)):
        inner = _eval(node.child, trace, env, quantitative)
        return _window_reduce(inner, trace, node.lo, node.hi,
                              isinstance(node, Globally), quantitative)

    if isinstance(node, (Until, Since)):
        left = _eval(node.left, trace, env, quantitative)
        right = _eval(node.right, trace, env, quantitative)
        return _until(left, right, trace, node.lo, node.hi,
                      isinstance(node, Since), quantitative)

    raise TypeError(f"cannot evaluate STL node of type {type(node).__name__}")


def _eval_predicate(node: Predicate, trace: Trace, env: Env,
                    quantitative: bool) -> np.ndarray:
    values = trace.channel(node.channel)
    threshold = node.resolve_threshold(env)
    if node.op in ("==", "!="):
        equal = np.isclose(values, threshold)
        truth = equal if node.op == "==" else ~equal
        if quantitative:
            return np.where(truth, TOP, -TOP)
        return truth
    if quantitative:
        return values - threshold if node.op[0] == ">" else threshold - values
    return _COMPARE[node.op](values, threshold)


def _window_steps(trace: Trace, lo: float, hi: Optional[float]):
    """The window ``[lo, hi]`` in whole samples, ``hi`` capped at the last
    index (a longer window reaches the same samples)."""
    last = len(trace) - 1
    hi_s = last if hi is None else min(trace.steps(hi), last)
    return trace.steps(lo), hi_s


def _window_reduce(inner: np.ndarray, trace: Trace, lo: float,
                   hi: Optional[float], use_min: bool,
                   quantitative: bool) -> np.ndarray:
    """``G`` (*use_min*) or ``F`` of ``inner`` over the future window
    ``[t+lo, t+hi]`` for every t, truncated at the end of the trace.

    One reduction over a sliding window view of ``inner[lo:]`` padded
    with the reduction's identity, so a window running past the end
    reduces over the samples that remain.  An empty window (``t + lo``
    past the end) is vacuously true for ``G`` and false for ``F``.
    """
    n = len(inner)
    lo_s, hi_s = _window_steps(trace, lo, hi)
    if quantitative:
        empty, identity = (TOP, np.inf) if use_min else (-TOP, -np.inf)
    else:
        empty = identity = use_min
    out = np.full(inner.shape, empty, dtype=inner.dtype)
    if lo_s <= hi_s:  # else every window starts past the end of the trace
        width = hi_s - lo_s + 1
        pad = np.full((width - 1,) + inner.shape[1:], identity,
                      dtype=inner.dtype)
        windows = sliding_window_view(np.concatenate([inner[lo_s:], pad]),
                                      width, axis=0)
        out[:n - lo_s] = (np.min if use_min else np.max)(windows, axis=-1)
    return out


def _until(left: np.ndarray, right: np.ndarray, trace: Trace, lo: float,
           hi: Optional[float], past: bool, quantitative: bool) -> np.ndarray:
    """``left U[lo,hi] right`` (or ``left S[lo,hi] right`` when *past*).

    Until: right holds at some ``t' = t + k`` with ``k`` in the window
    and left holds at every sample in ``[t, t')``.  Since: right held at
    some ``t' = t - k`` and left has held at every sample in ``(t', t]``.
    One pass per window offset ``k``: ``held`` is the conjunction of left
    over the ``k`` samples between ``t`` and ``t'``, and every offset in
    ``[lo, hi]`` contributes ``right(t') & held`` to the disjunction.
    Robustness starts from ``-TOP``/``TOP`` where booleans start from
    False/True, so both semantics share the pass.
    """
    n = len(left)
    lo_s, hi_s = _window_steps(trace, lo, hi)
    if quantitative:
        conj, disj, true, false = np.minimum, np.maximum, TOP, -TOP
    else:
        conj, disj, true, false = np.logical_and, np.logical_or, True, False
    out = np.full(left.shape, false, dtype=left.dtype)
    held = np.full(left.shape, true, dtype=left.dtype)
    for k in range(hi_s + 1):
        here = slice(k, None) if past else slice(0, n - k)
        there = slice(0, n - k) if past else slice(k, None)
        if k >= lo_s:
            out[here] = disj(out[here], conj(right[there], held[here]))
        held[here] = conj(held[here], left[there])
    return out
