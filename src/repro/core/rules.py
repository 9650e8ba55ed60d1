"""The APS Safety Context Specification of Table I — all 12 STL rules.

Each rule forbids (or, for rule 10, mandates) one control action in one
region of the ``(BG, BG', IOB, IOB')`` context space, with a learnable
threshold ``beta_i`` on IOB (rules 1-9, 11, 12) or BG (rule 10):

====  =============================================================  ======
rule  context  =>  consequence                                       hazard
====  =============================================================  ======
 1    BG>BGT & BG'>0 & IOB'<0 & IOB<b1   => !u1 (decrease)            H2
 2    BG>BGT & BG'>0 & IOB'=0 & IOB<b2   => !u1                       H2
 3    BG>BGT & BG'<0 & IOB'>0 & IOB<b3   => !u1                       H2
 4    BG>BGT & BG'<0 & IOB'<0 & IOB<b4   => !u1                       H2
 5    BG>BGT & BG'<0 & IOB'=0 & IOB<b5   => !u1                       H2
 6    BG<BGT & BG'<0 & IOB'>0 & IOB>b6   => !u2 (increase)            H1
 7    BG<BGT & BG'<0 & IOB'<0 & IOB>b7   => !u2                       H1
 8    BG<BGT & BG'<0 & IOB'=0 & IOB>b8   => !u2                       H1
 9    BG>BGT & IOB<b9                    => !u3 (stop)                H2
10    BG<b21                             =>  u3                       H1
11    BG>BGT & BG'>0 & IOB'<=0 & IOB<b10 => !u4 (keep)                H2
12    BG<BGT & BG'<0 & IOB'>=0 & IOB>b11 => !u4                       H1
====  =============================================================  ======

Each rule has one encoding, as STL: :meth:`repro.core.rules.APSRule.formula`
(Eq. 1) and its pointwise :meth:`repro.core.rules.APSRule.violation_body`.
The batched CAWT/CAWOT monitor
(:meth:`repro.core.monitor.ContextAwareMonitor.observe_batch`) and
threshold mining (:func:`repro.core.learning.mine_rule_samples`) evaluate
it over ``(n_steps, B)`` traces through :mod:`repro.stl.semantics`.  The
rules' verdicts on every Table I boundary are pinned by a golden fixture
(``tests/simulation/data/golden_replay.json``) recorded through an
earlier hand-written scalar check.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..controllers import ControlAction
from ..hazards import HazardType
from ..stl import And, Formula, Param, Predicate
from .scs import SafetyContextSpec, UCASEntry

__all__ = ["APSRule", "aps_rules", "aps_scs", "default_thresholds",
           "BG_TARGET", "IOB_RATE_EPS"]

#: the paper's BGT (BG target value) in mg/dL
BG_TARGET = 120.0

#: |IOB'| below this counts as "IOB' = 0" (U/min)
IOB_RATE_EPS = 1e-3

#: CAWOT defaults: thresholds that do not constrain IOB (rules fire on
#: context alone), and the clinical 70 mg/dL hypo threshold for rule 10.
DEFAULT_IOB_UPPER = 6.0   # for "IOB < beta" rules: any IOB below max-IOB
DEFAULT_IOB_LOWER = 0.0   # for "IOB > beta" rules: any positive IOB
DEFAULT_BG_LOW = 70.0     # rule 10


@dataclass(frozen=True)
class APSRule:
    """One Table I rule with its learnable-threshold metadata.

    Attributes
    ----------
    index:
        Table I row number (1-12).
    param:
        Name of the learnable threshold (``beta1`` .. ``beta11``, ``beta21``).
    mu_channel:
        Which context variable the threshold bounds (``IOB`` or ``BG``).
    direction:
        ``"lt"`` when the rule context requires ``mu < beta`` (learning
        pushes beta just above hazardous samples), ``"gt"`` for ``mu > beta``.
    action:
        The control action the rule constrains.
    hazard:
        Hazard predicted when the rule is violated.
    required:
        True when the action is mandated rather than forbidden (rule 10).
    bg_side:
        ``"above"``/``"below"`` BGT, or None (rule 10 uses the threshold).
    bg_rate / iob_rate:
        Sign constraints: ``"pos"``, ``"neg"``, ``"zero"``, ``"nonpos"``,
        ``"nonneg"`` or None.
    default:
        CAWOT default threshold.
    """

    index: int
    param: str
    mu_channel: str
    direction: str
    action: ControlAction
    hazard: HazardType
    required: bool
    bg_side: Optional[str]
    bg_rate: Optional[str]
    iob_rate: Optional[str]
    default: float

    def context_formula(self, bg_target: float = BG_TARGET) -> Formula:
        """The rule context as an STL conjunction with a Param threshold."""
        parts = []
        if self.bg_side == "above":
            parts.append(Predicate("BG", ">", bg_target))
        elif self.bg_side == "below":
            parts.append(Predicate("BG", "<", bg_target))
        parts.extend(_rate_predicates("BG'", self.bg_rate, 0.0))
        parts.extend(_rate_predicates("IOB'", self.iob_rate, IOB_RATE_EPS))
        op = "<" if self.direction == "lt" else ">"
        parts.append(Predicate(self.mu_channel, op, Param(self.param, self.default)))
        return parts[0] if len(parts) == 1 else And(parts)

    def ucas_entry(self, bg_target: float = BG_TARGET) -> UCASEntry:
        return UCASEntry(name=f"rule{self.index}",
                         context=self.context_formula(bg_target),
                         action=self.action, hazard=self.hazard,
                         required=self.required)

    def formula(self, bg_target: float = BG_TARGET, t0: float = 0.0,
                te: Optional[float] = None) -> Formula:
        """The full Eq. 1 formula ``G[t0,te](context -> consequence)``."""
        return self.ucas_entry(bg_target).to_stl(t0, te)

    @functools.lru_cache(maxsize=256)
    def violation_body(self, bg_target: float = BG_TARGET) -> Formula:
        """The pointwise violation condition ``context & u`` (``& !u`` for
        rule 10): true exactly where the rule is violated, with the
        threshold bound through the evaluation environment under
        :attr:`param`.  Built once per ``(rule, bg_target)`` and shared —
        the batched monitor evaluates it every control cycle."""
        return self.ucas_entry(bg_target).violation_body()


def _rate_predicates(channel: str, constraint: Optional[str], eps: float):
    if constraint is None:
        return []
    if constraint == "pos":
        return [Predicate(channel, ">", eps)]
    if constraint == "neg":
        return [Predicate(channel, "<", -eps)]
    if constraint == "zero":
        return [Predicate(channel, ">=", -eps), Predicate(channel, "<=", eps)]
    if constraint == "nonpos":
        return [Predicate(channel, "<=", eps)]
    if constraint == "nonneg":
        return [Predicate(channel, ">=", -eps)]
    raise ValueError(f"unknown rate constraint {constraint!r}")


_U1, _U2, _U3, _U4 = (ControlAction.DECREASE, ControlAction.INCREASE,
                      ControlAction.STOP, ControlAction.KEEP)
_H1, _H2 = HazardType.H1, HazardType.H2

#: (index, param, mu, dir, action, hazard, required, bg_side, bg_rate, iob_rate, default)
_RULE_TABLE: Tuple[tuple, ...] = (
    (1, "beta1", "IOB", "lt", _U1, _H2, False, "above", "pos", "neg", DEFAULT_IOB_UPPER),
    (2, "beta2", "IOB", "lt", _U1, _H2, False, "above", "pos", "zero", DEFAULT_IOB_UPPER),
    (3, "beta3", "IOB", "lt", _U1, _H2, False, "above", "neg", "pos", DEFAULT_IOB_UPPER),
    (4, "beta4", "IOB", "lt", _U1, _H2, False, "above", "neg", "neg", DEFAULT_IOB_UPPER),
    (5, "beta5", "IOB", "lt", _U1, _H2, False, "above", "neg", "zero", DEFAULT_IOB_UPPER),
    (6, "beta6", "IOB", "gt", _U2, _H1, False, "below", "neg", "pos", DEFAULT_IOB_LOWER),
    (7, "beta7", "IOB", "gt", _U2, _H1, False, "below", "neg", "neg", DEFAULT_IOB_LOWER),
    (8, "beta8", "IOB", "gt", _U2, _H1, False, "below", "neg", "zero", DEFAULT_IOB_LOWER),
    (9, "beta9", "IOB", "lt", _U3, _H2, False, "above", None, None, DEFAULT_IOB_UPPER),
    (10, "beta21", "BG", "lt", _U3, _H1, True, None, None, None, DEFAULT_BG_LOW),
    (11, "beta10", "IOB", "lt", _U4, _H2, False, "above", "pos", "nonpos", DEFAULT_IOB_UPPER),
    (12, "beta11", "IOB", "gt", _U4, _H1, False, "below", "neg", "nonneg", DEFAULT_IOB_LOWER),
)


def aps_rules() -> Tuple[APSRule, ...]:
    """All 12 Table I rules."""
    return tuple(APSRule(index=i, param=p, mu_channel=mu, direction=d,
                         action=a, hazard=h, required=req, bg_side=side,
                         bg_rate=bgr, iob_rate=iobr, default=dflt)
                 for i, p, mu, d, a, h, req, side, bgr, iobr, dflt in _RULE_TABLE)


def aps_scs(bg_target: float = BG_TARGET) -> SafetyContextSpec:
    """The full APS Safety Context Specification as UCAS entries."""
    return SafetyContextSpec(ucas=tuple(r.ucas_entry(bg_target) for r in aps_rules()))


def default_thresholds() -> Dict[str, float]:
    """CAWOT thresholds: every rule at its clinical/default value."""
    return {rule.param: rule.default for rule in aps_rules()}
