"""Safety-monitor interface and the context-aware (CAWT/CAWOT) monitor.

Monitors are wrappers around the controller's input-output interface
(Fig. 1a): each control cycle they receive the inferred system context
(:class:`~repro.core.context.ContextVector`, built by the closed loop from
the fault-free sensor stream and the commanded insulin) and decide whether
the command is an unsafe control action and which hazard it predicts.

The context-aware monitor evaluates the 12 Table I rules each cycle,
through the rules' STL formulas
(:meth:`repro.core.rules.APSRule.violation_body`).  With thresholds
learned from data (:mod:`repro.core.learning`) it is the paper's **CAWT**
monitor; with the clinical defaults it is the **CAWOT** baseline.

Every monitor has one evaluation path, the resumable *batched* step
(:meth:`SafetyMonitor.observe_batch`): a stack of context streams is
evaluated column-wise in lock step, each column continuing from its
column of an explicit state (:meth:`SafetyMonitor.init_state`).  Offline
replay (:mod:`repro.simulation.replay`) calls it once per batch from a
fresh state; the lock-step engine (:mod:`repro.simulation.vector`) and the
online service (:mod:`repro.serve`) once per tick, carrying the state.
:meth:`SafetyMonitor.observe` is its one-stream form: a ``(1, 1)`` batch
that continues the instance's own one-column state.
"""

from __future__ import annotations

import abc
import copy
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..hazards import HazardType
from ..stl import satisfaction
from .context import ContextVector
from .rules import APSRule, BG_TARGET, aps_rules, default_thresholds

__all__ = ["MonitorVerdict", "MonitorState", "SafetyMonitor",
           "ContextAwareMonitor", "cawt_monitor", "cawot_monitor",
           "NO_ALERT"]

#: per-column monitor state: named arrays whose last axis is the column
MonitorState = Dict[str, np.ndarray]


@dataclass(frozen=True)
class MonitorVerdict:
    """Outcome of one :meth:`SafetyMonitor.observe` call.

    Attributes
    ----------
    alert:
        True when the monitor flags the commanded action as unsafe.
    hazard:
        Predicted hazard type (None when no alert).
    """

    alert: bool
    hazard: Optional[HazardType] = None

    def __post_init__(self):
        if self.alert and self.hazard is None:
            raise ValueError("an alert must carry a predicted hazard type")


#: the quiescent verdict
NO_ALERT = MonitorVerdict(alert=False)

#: the period of the one-cycle batch :meth:`SafetyMonitor.observe` builds
#: (a lone context has none; only temporal STL windows would read it)
_OBSERVE_DT = 5.0


class SafetyMonitor(abc.ABC):
    """Base class of all safety monitors (context-aware, baselines, ML).

    A monitor implements :meth:`init_state` and :meth:`observe_batch`;
    everything else (:meth:`observe`, :meth:`reset`, :meth:`clone`) is
    built on them.
    """

    name: str = "monitor"

    #: the one-column state :meth:`observe` continues (None: fresh)
    _stream: Optional[MonitorState] = None

    def observe(self, ctx: ContextVector) -> MonitorVerdict:
        """Evaluate one control cycle of this instance's own stream.

        One ``(1, 1)`` :meth:`observe_batch` call that continues the
        instance's one-column state, so a stream fed cycle by cycle gets
        the verdicts of one batched call over it; :meth:`reset` starts a
        new stream.  For single-stream callers and per-decision timing.
        """
        # the batch type lives in the simulation layer, above this module
        from ..simulation.features import ContextBatch
        if self._stream is None:
            self._stream = self.init_state(1)
        tick = ContextBatch.from_tick(
            ctx.t, [ctx.bg], [ctx.bg_rate], [ctx.iob], [ctx.iob_rate],
            [ctx.rate], [ctx.bolus], [int(ctx.action)], _OBSERVE_DT)
        alerts, hazards = self.observe_batch(tick, state=self._stream)
        if not alerts[0, 0]:
            return NO_ALERT
        return MonitorVerdict(alert=True,
                              hazard=HazardType(int(hazards[0, 0])))

    def reset(self) -> None:
        """Start :meth:`observe`'s stream afresh."""
        self._stream = None

    def clone(self) -> "SafetyMonitor":
        """An independent copy of this monitor with a fresh stream."""
        clone = copy.deepcopy(self)
        clone.reset()
        return clone

    def export_state(self) -> Dict[str, object]:
        """JSON-able construction state for the serving registry.

        Monitors that can be persisted by
        :class:`repro.serve.registry.MonitorRegistry` override this (and
        the registry knows how to rebuild them); the base implementation
        refuses loudly so an unsupported monitor never round-trips as an
        empty shell.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support registry state export")

    @abc.abstractmethod
    def init_state(self, n_cols: int) -> MonitorState:
        """Fresh cross-cycle state for *n_cols* independent columns.

        Arrays whose last axis is the column, so callers can gather and
        scatter any column subset (``value[..., cols]``) and snapshot
        them; ``{}`` without cross-cycle state.  The model is never part
        of it: one monitor instance serves every column.
        """

    @abc.abstractmethod
    def observe_batch(self, batch, state: Optional[MonitorState] = None
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """Evaluate a lock-step stack of context streams.

        Parameters
        ----------
        batch:
            A :class:`~repro.simulation.features.ContextBatch`: ``B``
            equal-length context streams stacked time-major, exposing
            ``shape == (n_steps, B)``, the ``(n_steps, B)`` channel
            matrices ``bg``/``bg_rate``/``iob``/``iob_rate``/``rate``/
            ``bolus``/``action``/``t``, the ``(n_steps, D, B)``
            ``features`` stack and the whole batch as one STL trace
            (``to_stl_trace``).
        state:
            The columns' cross-cycle state from :meth:`init_state`
            (``B`` columns), advanced in place past the batch's cycles.
            ``None`` starts every column fresh and discards the result.

        Returns
        -------
        ``(alerts, hazards)``: an ``(n_steps, B)`` boolean alert matrix
        and the matching integer hazard-type codes (0 when silent).

        **Contract**: columns are independent, and a column's verdicts
        depend only on its own cycles and state — so any batch
        composition gives the same verdicts, and a stream split at any
        cycle and resumed through one state gives the one-shot verdicts.
        Implementations use elementwise arithmetic and comparisons only
        (no reductions across columns, no batch-shape-dependent BLAS
        calls) and keep each column's state in its own column.
        """


class ContextAwareMonitor(SafetyMonitor):
    """The paper's context-aware monitor over the Table I rules.

    Parameters
    ----------
    thresholds:
        Mapping of rule parameter name (``beta1``..``beta11``, ``beta21``)
        to threshold value.  Missing entries fall back to the rule defaults.
        Pass learned thresholds for **CAWT**; pass nothing for **CAWOT**.
    bg_target:
        The BGT constant of Table I.
    rules:
        Rule subset to monitor (defaults to all 12).
    """

    def __init__(self, thresholds: Optional[Dict[str, float]] = None,
                 bg_target: float = BG_TARGET,
                 rules: Optional[Sequence[APSRule]] = None,
                 name: str = "context-aware"):
        self.rules = tuple(rules) if rules is not None else aps_rules()
        self.bg_target = float(bg_target)
        merged = default_thresholds()
        if thresholds:
            unknown = set(thresholds) - set(merged)
            if unknown:
                raise KeyError(f"unknown rule parameters: {sorted(unknown)}")
            merged.update(thresholds)
        self.thresholds = merged
        self.name = name

    def init_state(self, n_cols: int) -> MonitorState:
        """Pure rule comparisons per cycle: no cross-cycle state."""
        return {}

    def observe_batch(self, batch, state: Optional[MonitorState] = None
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized rule evaluation over a whole context batch.

        Each rule's STL :meth:`~repro.core.rules.APSRule.violation_body`
        (built from this monitor's ``bg_target``) is evaluated through
        :mod:`repro.stl.semantics` over the batch's ``(n_steps, B)``
        trace, with the monitor's thresholds as the environment; the
        predicted hazard comes from the first triggered rule in rule
        order (all rules constraining the same action agree on the
        hazard).  Pure comparisons, so no rounding.
        """
        trace = batch.to_stl_trace()
        alerts = np.zeros(batch.shape, dtype=bool)
        hazards = np.zeros(batch.shape, dtype=int)
        for rule in self.rules:
            mask = satisfaction(rule.violation_body(self.bg_target), trace,
                                self.thresholds)
            # the first triggered rule determines the predicted hazard
            hazards = np.where(mask & ~alerts, int(rule.hazard), hazards)
            alerts |= mask
        return alerts, hazards

    def with_thresholds(self, thresholds: Dict[str, float],
                        name: Optional[str] = None) -> "ContextAwareMonitor":
        """A copy of this monitor with (partially) replaced thresholds."""
        merged = dict(self.thresholds)
        merged.update(thresholds)
        return ContextAwareMonitor(thresholds=merged, bg_target=self.bg_target,
                                   rules=self.rules, name=name or self.name)

    def export_state(self) -> Dict[str, object]:
        """Thresholds + BGT + name — everything needed to rebuild the
        monitor over the full Table I rule set.  Custom rule subsets are
        refused (a silently-dropped subset would change verdicts)."""
        if self.rules != aps_rules():
            raise NotImplementedError(
                "only the full Table I rule set round-trips through the "
                "registry; this monitor carries a custom rule subset")
        return {"thresholds": dict(self.thresholds),
                "bg_target": self.bg_target, "name": self.name}

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "ContextAwareMonitor":
        """Rebuild a monitor from :meth:`export_state` output."""
        return cls(thresholds=dict(state["thresholds"]),
                   bg_target=float(state["bg_target"]),
                   name=str(state["name"]))


def cawt_monitor(thresholds: Dict[str, float],
                 bg_target: float = BG_TARGET) -> ContextAwareMonitor:
    """Context-Aware monitor With learned Thresholds (the paper's CAWT)."""
    return ContextAwareMonitor(thresholds=thresholds, bg_target=bg_target,
                               name="CAWT")


def cawot_monitor(bg_target: float = BG_TARGET) -> ContextAwareMonitor:
    """Context-Aware monitor WithOut Threshold learning (CAWOT baseline)."""
    return ContextAwareMonitor(thresholds=None, bg_target=bg_target,
                               name="CAWOT")
