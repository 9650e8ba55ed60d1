"""Data-driven refinement of the SCS thresholds (Section III-C2).

The unknown boundary parameters ``beta_i`` of the Table I rules are learned
from hazardous traces generated by fault injection ("adversarial training").
For each rule we mine *robustness samples*: the value of the thresholded
context variable ``mu`` (IOB, or BG for rule 10) at every pre-hazard cycle of
a matching-hazard trace where the rest of the rule context held and the
unsafe action was issued — the rule's STL violation body
(:meth:`repro.core.rules.APSRule.violation_body`) with its threshold
opened, evaluated over lock-step trace stacks.  The paper's Eq. 3 then asks
for the tightest threshold that keeps the UCAS formula satisfied on all
those samples::

    minimize   sum_H loss(r)     subject to   r = +-(mu - beta) >= 0

We solve the bound-constrained problem with scipy's L-BFGS-B (the same
algorithm the paper cites [22]; it estimates the inverse Hessian with the
limited-memory two-loop recursion) — the coverage constraint ``r >= 0``
translates exactly into a box bound on ``beta`` because the samples are
fixed: ``beta >= max(mu)`` for ``mu < beta`` contexts and ``beta <= min(mu)``
for ``mu > beta`` contexts.

Loss functions (Fig. 3):

- ``mse`` / ``mae``: symmetric losses whose minimisers sit in the middle of
  the data and therefore *violate* the formula on about half the samples;
- ``telex``: a TeLEx-style tightness function — exponential penalty for
  violations, but a shallow minimum far from zero, so thresholds are loose;
- ``tmee``: the paper's Tight Mean Exponential Error
  ``e^(-r) + r - 1/(1 + e^(-2r))`` with a unique minimum at a small positive
  slack (r ~ 0.48), exponential violation penalty and linear looseness
  penalty.  (Eq. 4 is typeset ambiguously; DESIGN.md §3 explains why this
  reading is the one consistent with Fig. 3b.)

Robustness is computed in *scaled* units (per-channel scale constants) so
that "tight" means the same thing for IOB thresholds (units of insulin) and
BG thresholds (mg/dL).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import minimize

from ..controllers import ControlAction
from ..parallel import iter_equal_length_groups, lockstep_width, map_chunks
from ..stl import Trace, satisfaction
from .rules import APSRule, BG_TARGET, aps_rules

__all__ = ["LOSSES", "tmee_loss", "telex_loss", "mse_loss", "mae_loss",
           "RuleSamples", "mine_rule_samples", "learn_thresholds",
           "learn_fold_thresholds", "ThresholdFit", "LearningResult",
           "ROBUSTNESS_SCALES"]

#: robustness scale per thresholded channel: one "unit of tightness"
ROBUSTNESS_SCALES: Dict[str, float] = {"IOB": 0.25, "BG": 5.0}


# ----------------------------------------------------------------------
# loss functions (value, d/dr) — vectorized over r
# ----------------------------------------------------------------------

def tmee_loss(r: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Tight Mean Exponential Error (Eq. 4): ``e^-r + r - 1/(1+e^-2r)``."""
    r = np.asarray(r, dtype=float)
    sig = 1.0 / (1.0 + np.exp(-2.0 * np.clip(r, -60.0, 60.0)))
    value = np.exp(-np.clip(r, -60.0, 60.0)) + r - sig
    grad = -np.exp(-np.clip(r, -60.0, 60.0)) + 1.0 - 2.0 * sig * (1.0 - sig)
    return value, grad


def telex_loss(r: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """TeLEx-style tightness: ``e^-r + 0.1 r`` (minimum at r = ln 10 ~ 2.3).

    Qualitatively matches the TeLEx curve of Fig. 3b: violations blow up
    exponentially but the slack penalty is shallow, so learned thresholds
    are "not tight enough without manual adjusting" (Section III-C2).
    """
    r = np.asarray(r, dtype=float)
    e = np.exp(-np.clip(r, -60.0, 60.0))
    return e + 0.1 * r, -e + 0.1


def mse_loss(r: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    r = np.asarray(r, dtype=float)
    return r ** 2, 2.0 * r


def mae_loss(r: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    r = np.asarray(r, dtype=float)
    return np.abs(r), np.sign(r)


LOSSES: Dict[str, Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]] = {
    "tmee": tmee_loss,
    "telex": telex_loss,
    "mse": mse_loss,
    "mae": mae_loss,
}


# ----------------------------------------------------------------------
# robustness-sample mining
# ----------------------------------------------------------------------

@dataclass
class RuleSamples:
    """Per-trace robustness statistics for one rule's threshold.

    ``values`` holds one statistic per *hazardous* trace: the minimum (for
    ``mu < beta`` rules) or maximum (for ``mu > beta`` rules) of the
    thresholded variable over the trace's eligible pre-hazard instants —
    exactly the per-trace robustness ``r_d = +-(beta - stat_d)`` of the
    paper's Eq. 3, which is positive iff the rule fires at least once before
    the trace's hazard.

    ``safe_values`` holds the same statistic over *normal operation*: whole
    fault-free traces plus the pre-fault region of faulty traces.  The rule
    fires spuriously on such a segment iff its statistic is on the wrong side
    of the threshold, so these bound the threshold from the false-positive
    side ("formulas not violated by normal data traces", Section III-C2).
    Non-hazardous *post-fault* behaviour is deliberately excluded: a tolerated
    fault may legitimately look extreme without being normal.
    """

    rule: APSRule
    values: np.ndarray
    safe_values: np.ndarray

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def safe_count(self) -> int:
        return len(self.safe_values)


#: default mining window: the hour before hazard occurrence (12 cycles)
MINING_WINDOW = 12


def _trace_spans(trace, window: Optional[int]
                 ) -> Tuple[Optional[Tuple[int, int, object]], int]:
    """The two mining regions of one trace.

    Returns ``(hazard_span, safe_stop)``: the pre-hazard window as
    ``(start, stop, first_hazard_type)`` (None for safe traces), and the
    end of the normal-operation segment — the whole trace when fault-free
    and non-hazardous, otherwise whatever precedes the fault activation
    (and the hazard, if one occurs even earlier).
    """
    label = trace.hazard_label
    hazard_span = None
    if label.any_hazard:
        stop = label.first_hazard + 1
        start = 0 if window is None else max(0, stop - window)
        hazard_span = (start, stop, label.first_type)
    if trace.fault_step is None:
        safe_stop = 0 if label.any_hazard else len(trace)
    else:
        safe_stop = trace.fault_step
        if label.any_hazard:
            safe_stop = min(safe_stop, label.first_hazard)
    return hazard_span, safe_stop


def _column_stat(mask: np.ndarray, mu: np.ndarray, column: int, start: int,
                 stop: int, direction: str) -> Optional[float]:
    """The robustness statistic of one stacked trace over cycles
    ``[start, stop)``: the min (``lt``) or max (``gt``) of ``mu`` where the
    rule context holds, or None where it never does."""
    eligible_mask = mask[start:stop, column]
    if not eligible_mask.any():
        return None
    eligible = mu[start:stop, column][eligible_mask]
    return float(eligible.min() if direction == "lt" else eligible.max())


def _mine_group(group: List, rules: Sequence[APSRule], bg_target: float,
                window: Optional[int], hazard_stats: Dict[int, List[float]],
                safe_stats: Dict[int, List[float]]) -> None:
    """Mine one equal-length trace group as a lock-step stack.

    The group becomes one ``(n_steps, B)`` STL trace of the rule context
    channels.  Each rule's :meth:`~repro.core.rules.APSRule.violation_body`
    is evaluated once over it with the rule's threshold opened to
    ``+-inf`` (the rule context and action clause alone); the per-trace
    statistics are then reduced column-wise over the per-trace mining
    windows.  Masks are pure comparisons and the statistics pick existing
    elements, so the mined values do not depend on how traces are grouped.
    """
    bg = np.stack([trace.cgm for trace in group], axis=1)
    bg_rate = np.zeros_like(bg)
    bg_rate[1:] = np.diff(bg, axis=0) / np.array(
        [float(trace.dt) for trace in group])
    action = np.stack([trace.action for trace in group], axis=1)
    channels = {"BG": bg, "BG'": bg_rate,
                "IOB": np.stack([trace.iob for trace in group], axis=1),
                "IOB'": np.stack([trace.iob_rate for trace in group], axis=1)}
    for act in ControlAction:
        channels[act.channel] = (action == int(act)).astype(float)
    stack = Trace(channels, dt=float(group[0].dt))
    spans = [_trace_spans(trace, window) for trace in group]
    for rule in rules:
        open_threshold = math.inf if rule.direction == "lt" else -math.inf
        mask = satisfaction(rule.violation_body(bg_target), stack,
                            {rule.param: open_threshold})
        mu = stack[rule.mu_channel]
        for column, (hazard_span, safe_stop) in enumerate(spans):
            if hazard_span is not None and hazard_span[2] == rule.hazard:
                stat = _column_stat(mask, mu, column, hazard_span[0],
                                    hazard_span[1], rule.direction)
                if stat is not None:
                    hazard_stats[rule.index].append(stat)
            if safe_stop > 0:
                stat = _column_stat(mask, mu, column, 0, safe_stop,
                                    rule.direction)
                if stat is not None:
                    safe_stats[rule.index].append(stat)


def _mine_chunk(traces: Iterable, rules: Sequence[APSRule], bg_target: float,
                window: Optional[int]
                ) -> Tuple[Dict[int, List[float]], Dict[int, List[float]]]:
    """Mine one chunk of the trace stream (see mine_rule_samples).

    The single place mining happens, one chunk of
    :data:`~repro.parallel.LOCKSTEP_WIDTH` traces at a time, stacking
    consecutive equal-length traces into lock-step groups, so worker
    count and width can only change wall-clock time, never the mined
    statistics.
    """
    hazard_stats: Dict[int, List[float]] = {rule.index: [] for rule in rules}
    safe_stats: Dict[int, List[float]] = {rule.index: [] for rule in rules}
    for group in iter_equal_length_groups(traces):
        _mine_group(group, rules, bg_target, window, hazard_stats,
                    safe_stats)
    return hazard_stats, safe_stats


def mine_rule_samples(traces: Iterable, rules: Optional[Sequence[APSRule]] = None,
                      bg_target: float = BG_TARGET,
                      window: Optional[int] = MINING_WINDOW,
                      workers: Optional[int] = None) -> List[RuleSamples]:
    """Extract per-rule, per-trace robustness statistics (see RuleSamples).

    Hazardous traces contribute to rules matching their hazard type, over
    the pre-hazard *window* (default: the hour before hazard occurrence) —
    the instants at which a predictive alert is useful.  Non-hazardous
    traces contribute safe-side statistics over their full duration.  Pass
    ``window=None`` to mine the whole pre-hazard prefix (ablation use).

    The trace stream is cut into chunks of
    :data:`~repro.parallel.LOCKSTEP_WIDTH` traces by
    :func:`~repro.parallel.map_chunks` — the same chunks in-process and,
    with ``workers > 1``, on a forked pool — and per-chunk statistics are
    concatenated in chunk order, so the result is element-wise identical
    for every worker count.  Lazy sequences (``TraceDataset``) are
    chunked by index, so each worker only loads its own shards.  Inside
    each chunk, consecutive equal-length traces stack into lock-step
    groups and each rule's STL violation body is evaluated over the whole
    ``(n_steps, B)`` stack at once — element-wise identical to mining
    trace by trace.
    """
    rules = list(rules) if rules is not None else list(aps_rules())
    if window is not None and window < 1:
        raise ValueError(f"window must be >= 1 cycle, got {window}")

    def mine_chunk(chunk):
        return _mine_chunk(chunk, rules, bg_target, window)

    hazard_stats: Dict[int, List[float]] = {rule.index: [] for rule in rules}
    safe_stats: Dict[int, List[float]] = {rule.index: [] for rule in rules}
    for chunk_hazard, chunk_safe in map_chunks(mine_chunk, traces,
                                               lockstep_width(), workers):
        for index, values in chunk_hazard.items():
            hazard_stats[index].extend(values)
        for index, values in chunk_safe.items():
            safe_stats[index].extend(values)
    return [RuleSamples(rule=rule,
                        values=np.asarray(hazard_stats[rule.index]),
                        safe_values=np.asarray(safe_stats[rule.index]))
            for rule in rules]


# ----------------------------------------------------------------------
# threshold optimization
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdFit:
    """Outcome of fitting one rule's threshold."""

    param: str
    value: float
    n_samples: int
    loss: float
    used_default: bool
    converged: bool
    violations: int  # training samples the final threshold fails to cover


@dataclass
class LearningResult:
    """Learned thresholds plus per-rule diagnostics."""

    thresholds: Dict[str, float] = field(default_factory=dict)
    fits: List[ThresholdFit] = field(default_factory=list)

    @property
    def learned_params(self) -> List[str]:
        return [f.param for f in self.fits if not f.used_default]


def _safe_bound(samples: RuleSamples) -> Optional[float]:
    """Largest (lt) / smallest (gt) threshold that keeps every observed
    normal-operation segment silent, with a small margin."""
    if samples.safe_count == 0:
        return None
    margin = 0.2 * ROBUSTNESS_SCALES[samples.rule.mu_channel]
    if samples.rule.direction == "lt":
        return float(np.min(samples.safe_values)) - margin
    return float(np.max(samples.safe_values)) + margin


def _fit_one(samples: RuleSamples, loss_name: str, enforce_coverage: bool,
             coverage_quantile: float = 1.0) -> ThresholdFit:
    rule = samples.rule
    if samples.count == 0:
        # No hazardous example exercised this rule.  If normal-operation data
        # exists, tighten the threshold to the silent side of it — leaving
        # the wide-open default would make an un-exercised rule the monitor's
        # main false-alarm source.
        bound = _safe_bound(samples)
        if bound is not None:
            return ThresholdFit(param=rule.param, value=bound, n_samples=0,
                                loss=float("nan"), used_default=False,
                                converged=True, violations=0)
        return ThresholdFit(param=rule.param, value=rule.default,
                            n_samples=0, loss=float("nan"), used_default=True,
                            converged=True, violations=0)
    loss_fn = LOSSES[loss_name]
    scale = ROBUSTNESS_SCALES[rule.mu_channel]
    mu = samples.values
    sign = 1.0 if rule.direction == "lt" else -1.0  # r = sign*(beta - stat)

    def objective(beta_arr):
        beta = beta_arr[0]
        r = sign * (beta - mu) / scale
        values, grads = loss_fn(r)
        return float(np.mean(values)), np.array([np.mean(grads) * sign / scale])

    span = max(float(np.ptp(mu)), scale) + 10.0 * scale
    if enforce_coverage:
        # r_d >= 0 for (a quantile of) the hazardous traces, as a box bound
        if rule.direction == "lt":
            lo = float(np.quantile(mu, coverage_quantile))
            bounds = [(lo, lo + span)]
        else:
            hi = float(np.quantile(mu, 1.0 - coverage_quantile))
            bounds = [(hi - span, hi)]
    else:
        bounds = [(float(np.min(mu)) - span, float(np.max(mu)) + span)]
    x0 = np.array([np.clip(np.mean(mu) + sign * scale, *bounds[0])])
    result = minimize(objective, x0, jac=True, method="L-BFGS-B", bounds=bounds)
    beta = float(result.x[0])

    # FP-side cap: do not let the threshold make the rule fire on normal
    # traces (the paper's low-FPR priority).
    bound = _safe_bound(samples)
    if bound is not None:
        beta = min(beta, bound) if rule.direction == "lt" else max(beta, bound)

    r_final = sign * (beta - mu) / scale
    return ThresholdFit(param=rule.param, value=beta, n_samples=samples.count,
                        loss=float(result.fun), used_default=False,
                        converged=bool(result.success),
                        violations=int(np.sum(r_final < -1e-9)))


def learn_thresholds(traces: Iterable, loss: str = "tmee",
                     rules: Optional[Sequence[APSRule]] = None,
                     bg_target: float = BG_TARGET,
                     enforce_coverage: bool = True,
                     coverage_quantile: float = 1.0,
                     window: Optional[int] = MINING_WINDOW,
                     workers: Optional[int] = None) -> LearningResult:
    """Learn all rule thresholds from (hazardous) training traces.

    Parameters
    ----------
    traces:
        Training :class:`~repro.simulation.trace.SimulationTrace` objects —
        typically a fault-injection campaign (adversarial training).
    loss:
        One of ``"tmee"`` (the paper's), ``"telex"``, ``"mse"``, ``"mae"``.
    enforce_coverage:
        Enforce per-trace ``r_d >= 0`` via box bounds (Eq. 3's constraint).
        Disable only for loss-shape comparison experiments.
    coverage_quantile:
        Fraction of hazardous traces the constraint must cover (1.0 = all).
    window:
        Pre-hazard mining window in cycles (see :func:`mine_rule_samples`).
    workers:
        Fan robustness-sample mining out over a forked process pool
        (None: ``REPRO_WORKERS`` env, or 1).  The learned thresholds are
        byte-identical for every worker count.

    Rules with no mined samples keep their CAWOT defaults.  Non-hazardous
    training traces bound each threshold from the false-positive side.
    """
    if loss not in LOSSES:
        raise KeyError(f"unknown loss {loss!r}; available: {sorted(LOSSES)}")
    if not 0.0 < coverage_quantile <= 1.0:
        raise ValueError(
            f"coverage_quantile must be in (0, 1], got {coverage_quantile}")
    mined = mine_rule_samples(traces, rules=rules, bg_target=bg_target,
                              window=window, workers=workers)
    result = LearningResult()
    for samples in mined:
        fit = _fit_one(samples, loss, enforce_coverage, coverage_quantile)
        result.fits.append(fit)
        result.thresholds[fit.param] = fit.value
    return result


def learn_fold_thresholds(traces: Sequence, folds: int,
                          fault_free: Iterable = (),
                          loss: str = "tmee",
                          rules: Optional[Sequence[APSRule]] = None,
                          bg_target: float = BG_TARGET,
                          enforce_coverage: bool = True,
                          coverage_quantile: float = 1.0,
                          window: Optional[int] = MINING_WINDOW,
                          workers: Optional[int] = None
                          ) -> List[LearningResult]:
    """Cross-validated threshold learning: one fit per held-out fold.

    Fold ``f`` learns from the round-robin *training* side of the
    ``f``-th split (every trace whose index satisfies ``i % folds != f``,
    exactly :func:`~repro.simulation.batch.kfold_split`) plus all of
    *fault_free*.  The per-fold fits share no state, so they fan out one
    fold per chunk over :func:`~repro.parallel.map_chunks`: ``workers > 1``
    distributes whole folds across processes — each fold's mining runs
    in-process inside its worker — and collects the :class:`LearningResult`
    list in fold order, element-wise identical to the serial loop.  This
    is the k-fold hot path of Tables VI/VIII and Fig. 9.

    Lazy trace sequences (``TraceDataset``) are indexed per fold, so a
    worker only loads the shards its folds touch.
    """
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    if not hasattr(traces, "__getitem__"):
        traces = list(traces)
    fault_free = list(fault_free)

    def fold_train(fold):
        # lazy: indexed loads keep a TraceDataset's bounded LRU window
        # instead of materialising (folds-1)/folds of the campaign
        for i in range(len(traces)):
            if i % folds != fold:
                yield traces[i]
        yield from fault_free

    def fit_fold(chunk) -> LearningResult:
        (fold,) = chunk
        return learn_thresholds(
            fold_train(fold), loss=loss, rules=rules,
            bg_target=bg_target, enforce_coverage=enforce_coverage,
            coverage_quantile=coverage_quantile, window=window,
            workers=1)  # no nested pools: folds are the parallel axis

    return list(map_chunks(fit_fold, range(folds), 1, workers))
