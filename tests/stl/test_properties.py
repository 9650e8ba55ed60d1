"""Hypothesis property-based tests for the STL engine.

These check the classic soundness/duality laws of quantitative STL semantics
on randomly generated traces and formulas, and the columnar evaluator
against a per-sample reference evaluator, on single and batched traces.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stl import (
    And,
    Atomic,
    Eventually,
    Globally,
    Implies,
    Not,
    Or,
    Predicate,
    Since,
    Until,
    robustness,
    satisfaction,
    Trace,
)
from repro.stl.semantics import TOP

N_SAMPLES = 12
BATCH = 3

_values = st.floats(min_value=-100, max_value=400, allow_nan=False,
                    allow_infinity=False, width=32)


def make_trace(values):
    """Channel ``x`` plus its backward difference ``x'``."""
    return Trace({"x": values}, dt=5.0).with_derivative("x")


@st.composite
def traces(draw):
    return make_trace(draw(st.lists(_values, min_size=N_SAMPLES,
                                    max_size=N_SAMPLES)))


@st.composite
def batched_traces(draw):
    """An ``(N_SAMPLES, BATCH)`` trace: BATCH signals in lock step."""
    values = draw(st.lists(_values, min_size=N_SAMPLES * BATCH,
                           max_size=N_SAMPLES * BATCH))
    return make_trace(np.reshape(values, (N_SAMPLES, BATCH)))


@st.composite
def predicates(draw):
    op = draw(st.sampled_from(["<", "<=", ">", ">="]))
    channel = draw(st.sampled_from(["x", "x'"]))
    bound = 350 if channel == "x" else 20
    threshold = draw(st.floats(min_value=-bound, max_value=bound,
                               allow_nan=False, allow_infinity=False,
                               width=32))
    return Predicate(channel, op, threshold)


@st.composite
def windows(draw):
    """``(lo, hi)`` in minutes: ``lo > 0``, windows reaching past the end
    of the trace, and unbounded ``hi=None`` all occur."""
    lo = draw(st.integers(min_value=0, max_value=N_SAMPLES + 1)) * 5.0
    if draw(st.booleans()):
        return lo, None
    return lo, lo + draw(st.integers(min_value=0,
                                     max_value=N_SAMPLES + 1)) * 5.0


@st.composite
def formulas(draw, depth=2):
    if depth == 0 or draw(st.integers(min_value=0, max_value=3)) == 0:
        if draw(st.integers(min_value=0, max_value=5)) == 0:
            return Atomic(draw(st.booleans()))
        return draw(predicates())
    kind = draw(st.sampled_from(["not", "and", "or", "implies", "G", "F",
                                 "U", "S"]))
    if kind == "not":
        return Not(draw(formulas(depth=depth - 1)))
    left = draw(formulas(depth=depth - 1))
    if kind in ("G", "F"):
        return (Globally if kind == "G" else Eventually)(left, *draw(windows()))
    right = draw(formulas(depth=depth - 1))
    if kind in ("U", "S"):
        return (Until if kind == "U" else Since)(left, right, *draw(windows()))
    if kind == "implies":
        return Implies(left, right)
    return (And if kind == "and" else Or)([left, right])


# ----------------------------------------------------------------------
# per-sample reference evaluator: one Python loop per sample and window
# ----------------------------------------------------------------------

def reference(node, trace, quantitative):
    """Pointwise semantics of *node* over a single-signal trace, sample by
    sample — the reference the columnar evaluator must equal exactly."""
    n = len(trace)
    if isinstance(node, Atomic):
        if quantitative:
            return np.full(n, TOP if node.value else -TOP)
        return np.full(n, node.value, dtype=bool)
    if isinstance(node, Predicate):
        values = trace.channel(node.channel)
        margin = (values - node.threshold if node.op in (">", ">=")
                  else node.threshold - values)
        if quantitative:
            return margin
        return {">": values > node.threshold, ">=": values >= node.threshold,
                "<": values < node.threshold,
                "<=": values <= node.threshold}[node.op]
    parts = [reference(c, trace, quantitative) for c in node.children]
    if isinstance(node, Not):
        return -parts[0] if quantitative else ~parts[0]
    if isinstance(node, And):
        return (np.minimum if quantitative else np.logical_and).reduce(parts)
    if isinstance(node, Or):
        return (np.maximum if quantitative else np.logical_or).reduce(parts)
    if isinstance(node, Implies):
        if quantitative:
            return np.maximum(-parts[0], parts[1])
        return np.logical_or(~parts[0], parts[1])
    lo_s = trace.steps(node.lo)
    hi_s = n - 1 if node.hi is None else trace.steps(node.hi)
    if isinstance(node, (Globally, Eventually)):
        return _reference_future_reduce(parts[0], lo_s, hi_s,
                                        isinstance(node, Globally),
                                        quantitative)
    if isinstance(node, Until):
        return _reference_until(*parts, lo_s, hi_s, quantitative)
    return _reference_since(*parts, lo_s, hi_s, quantitative)


def _reference_future_reduce(inner, lo_s, hi_s, use_min, quantitative):
    n = len(inner)
    if quantitative:
        out = np.full(n, float(TOP if use_min else -TOP))
    else:
        out = np.full(n, use_min, dtype=bool)  # empty G window: vacuously true
    for t in range(n):
        start = t + lo_s
        stop = min(t + hi_s, n - 1)
        if start > stop:
            continue
        window = inner[start:stop + 1]
        if quantitative:
            out[t] = np.min(window) if use_min else np.max(window)
        else:
            out[t] = np.all(window) if use_min else np.any(window)
    return out


def _reference_until(left, right, lo_s, hi_s, quantitative):
    n = len(left)
    if quantitative:
        out = np.full(n, -TOP)
        for t in range(n):
            best = -TOP
            prefix = TOP
            for tp in range(t, min(t + hi_s, n - 1) + 1):
                if tp >= t + lo_s:
                    best = max(best, min(right[tp], prefix))
                prefix = min(prefix, left[tp])
            out[t] = best
        return out
    out = np.zeros(n, dtype=bool)
    for t in range(n):
        prefix = True
        for tp in range(t, min(t + hi_s, n - 1) + 1):
            if tp >= t + lo_s and right[tp] and prefix:
                out[t] = True
                break
            prefix = prefix and left[tp]
            if not prefix and tp >= t + lo_s:
                break
    return out


def _reference_since(left, right, lo_s, hi_s, quantitative):
    n = len(left)
    if quantitative:
        out = np.full(n, -TOP)
        for t in range(n):
            best = -TOP
            suffix = TOP  # min of left over (t', t]
            for tp in range(t, -1, -1):
                age = t - tp
                if age > hi_s:
                    break
                if age >= lo_s:
                    best = max(best, min(right[tp], suffix))
                suffix = min(suffix, left[tp])
            out[t] = best
        return out
    out = np.zeros(n, dtype=bool)
    for t in range(n):
        suffix = True
        for tp in range(t, -1, -1):
            age = t - tp
            if age > hi_s:
                break
            if age >= lo_s and right[tp] and suffix:
                out[t] = True
                break
            suffix = suffix and left[tp]
            if not suffix and age >= lo_s:
                break
    return out


@given(traces(), formulas())
@settings(max_examples=400, deadline=None)
def test_columnar_semantics_equal_per_sample_reference(trace, formula):
    np.testing.assert_array_equal(satisfaction(formula, trace),
                                  reference(formula, trace, False))
    np.testing.assert_array_equal(robustness(formula, trace),
                                  reference(formula, trace, True))


@given(batched_traces(), formulas())
@settings(max_examples=200, deadline=None)
def test_batched_trace_equals_columns_one_at_a_time(trace, formula):
    sat = satisfaction(formula, trace)
    rob = robustness(formula, trace)
    assert sat.shape == rob.shape == (N_SAMPLES, BATCH)
    for b in range(BATCH):
        column = make_trace(trace["x"][:, b])
        np.testing.assert_array_equal(column["x'"], trace["x'"][:, b])
        np.testing.assert_array_equal(sat[:, b], satisfaction(formula, column))
        np.testing.assert_array_equal(rob[:, b], robustness(formula, column))


@given(traces(), formulas())
@settings(max_examples=150, deadline=None)
def test_soundness_positive_robustness_implies_satisfaction(trace, formula):
    """rho > 0 => satisfied; rho < 0 => not satisfied (at every index)."""
    rho = robustness(formula, trace)
    sat = satisfaction(formula, trace)
    strictly_pos = rho > 1e-9
    strictly_neg = rho < -1e-9
    assert np.all(sat[strictly_pos])
    assert not np.any(sat[strictly_neg])


@given(traces(), formulas())
@settings(max_examples=100, deadline=None)
def test_negation_flips_robustness(trace, formula):
    rho = robustness(formula, trace)
    rho_neg = robustness(Not(formula), trace)
    np.testing.assert_allclose(rho_neg, -rho)


@given(traces(), formulas())
@settings(max_examples=100, deadline=None)
def test_globally_eventually_duality(trace, formula):
    """G phi == !F !phi pointwise (boolean and robustness)."""
    g = Globally(formula, 0, 15)
    dual = Not(Eventually(Not(formula), 0, 15))
    np.testing.assert_array_equal(satisfaction(g, trace), satisfaction(dual, trace))
    np.testing.assert_allclose(robustness(g, trace), robustness(dual, trace))


@given(traces(), formulas(), formulas())
@settings(max_examples=100, deadline=None)
def test_conjunction_is_min(trace, f1, f2):
    rho = robustness(And([f1, f2]), trace)
    expected = np.minimum(robustness(f1, trace), robustness(f2, trace))
    np.testing.assert_allclose(rho, expected)


@given(traces(), predicates())
@settings(max_examples=100, deadline=None)
def test_globally_monotone_in_window(trace, pred):
    """Widening a G window can only lower robustness."""
    narrow = robustness(Globally(pred, 0, 10), trace)
    wide = robustness(Globally(pred, 0, 25), trace)
    assert np.all(wide <= narrow + 1e-9)


@given(traces(), predicates())
@settings(max_examples=100, deadline=None)
def test_eventually_monotone_in_window(trace, pred):
    """Widening an F window can only raise robustness."""
    narrow = robustness(Eventually(pred, 0, 10), trace)
    wide = robustness(Eventually(pred, 0, 25), trace)
    assert np.all(wide >= narrow - 1e-9)


@given(traces(), predicates())
@settings(max_examples=100, deadline=None)
def test_predicate_robustness_matches_margin(trace, pred):
    rho = robustness(pred, trace)
    x = trace[pred.channel]
    if pred.op in (">", ">="):
        np.testing.assert_allclose(rho, x - pred.threshold)
    else:
        np.testing.assert_allclose(rho, pred.threshold - x)
