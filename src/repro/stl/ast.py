"""Abstract syntax tree for bounded-time Signal Temporal Logic (STL).

The paper (Section III-C) specifies unsafe-control-action rules in the
bounded-time fragment of STL, with formulas of the shape::

    G[t0,te]( phi_1(mu_1(x)) & ... & phi_m(mu_m(x)) -> !u1 )

and mitigation specifications that use the *eventually* and *since*
operators::

    G[t0,te]( F[0,ts](u_c) S (phi_1 & ... & phi_m) )

This module defines the formula tree.  Evaluation (boolean and quantitative
robustness semantics) lives in :mod:`repro.stl.semantics`; parsing of textual
formulas in :mod:`repro.stl.parser`.

Learnable thresholds (the ``beta_i`` of Table I) are represented by
:class:`Param` placeholders; an environment mapping parameter names to floats
is supplied at evaluation time, or the formula can be specialised once with
:meth:`Formula.bind`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Union

__all__ = [
    "Param",
    "Formula",
    "Atomic",
    "Predicate",
    "Signal",
    "Not",
    "And",
    "Or",
    "Implies",
    "Globally",
    "Eventually",
    "Until",
    "Since",
]

_COMPARISONS = ("<", "<=", ">", ">=", "==", "!=")


class Param:
    """A named, learnable threshold inside a formula (e.g. ``beta1``).

    A ``Param`` may carry a ``default`` used when the evaluation environment
    does not bind it — this is how the CAWOT monitor (context-aware *without*
    threshold learning) runs the same rule set with clinical defaults.
    """

    __slots__ = ("name", "default")

    def __init__(self, name: str, default: Optional[float] = None):
        self.name = str(name)
        self.default = default

    def resolve(self, env: Optional[Dict[str, float]]) -> float:
        if env and self.name in env:
            return float(env[self.name])
        if self.default is not None:
            return float(self.default)
        raise KeyError(f"unbound STL parameter {self.name!r} and no default given")

    def __repr__(self) -> str:
        return f"Param({self.name!r})" if self.default is None else (
            f"Param({self.name!r}, default={self.default})")

    def __str__(self) -> str:
        return self.name

    def __eq__(self, other) -> bool:
        return (isinstance(other, Param) and other.name == self.name
                and other.default == self.default)

    def __hash__(self) -> int:
        return hash(("Param", self.name, self.default))


Threshold = Union[float, int, Param]


class Formula:
    """Base class of all STL formula nodes."""

    #: child formulas, overridden by composite nodes
    children: Sequence["Formula"] = ()

    # -- parameters ----------------------------------------------------
    def parameters(self) -> FrozenSet[str]:
        """Names of all unbound :class:`Param` thresholds in the subtree."""
        names = set()
        for child in self.children:
            names |= child.parameters()
        return frozenset(names)

    def bind(self, env: Dict[str, float]) -> "Formula":
        """Return a copy with every ``Param`` in *env* replaced by a float."""
        return self._rebuild([c.bind(env) for c in self.children])

    def _rebuild(self, children: Sequence["Formula"]) -> "Formula":
        raise NotImplementedError

    # -- convenience combinators ----------------------------------------
    def __and__(self, other: "Formula") -> "Formula":
        return And([self, other])

    def __or__(self, other: "Formula") -> "Formula":
        return Or([self, other])

    def __invert__(self) -> "Formula":
        return Not(self)

    def implies(self, other: "Formula") -> "Formula":
        return Implies(self, other)

    def atoms(self) -> Iterable["Predicate"]:
        """Yield every predicate leaf in the subtree (pre-order)."""
        for child in self.children:
            yield from child.atoms()

    def channels(self) -> FrozenSet[str]:
        """Names of all trace channels referenced by the formula."""
        return frozenset(a.channel for a in self.atoms())


class Atomic(Formula):
    """The constant formula ``true`` or ``false``."""

    def __init__(self, value: bool):
        self.value = bool(value)

    def _rebuild(self, children):
        return Atomic(self.value)

    def __str__(self) -> str:
        return "true" if self.value else "false"


class Predicate(Formula):
    """An atomic inequality ``channel OP threshold``.

    For continuous channels the robustness of ``x > c`` is ``x - c`` and of
    ``x < c`` is ``c - x`` (Section III-C2 of the paper).  Equality tests are
    intended for discrete channels and evaluate to a large positive/negative
    robustness constant.
    """

    #: robustness magnitude assigned to (dis)equality predicates
    DISCRETE_ROBUSTNESS = 1e9

    def __init__(self, channel: str, op: str, threshold: Threshold):
        if op not in _COMPARISONS:
            raise ValueError(f"unknown comparison {op!r}; expected one of {_COMPARISONS}")
        self.channel = str(channel)
        self.op = op
        self.threshold = threshold

    # -- parameters ----------------------------------------------------
    def parameters(self) -> FrozenSet[str]:
        if isinstance(self.threshold, Param):
            return frozenset({self.threshold.name})
        return frozenset()

    def bind(self, env: Dict[str, float]) -> "Formula":
        if isinstance(self.threshold, Param) and self.threshold.name in env:
            return Predicate(self.channel, self.op, float(env[self.threshold.name]))
        return self

    def resolve_threshold(self, env: Optional[Dict[str, float]]) -> float:
        if isinstance(self.threshold, Param):
            return self.threshold.resolve(env)
        return float(self.threshold)

    def _rebuild(self, children):
        return Predicate(self.channel, self.op, self.threshold)

    def atoms(self):
        yield self

    def __str__(self) -> str:
        return f"({self.channel} {self.op} {self.threshold})"


class Signal(Predicate):
    """A boolean channel used as an atom, e.g. the control-action flags u1..u4.

    Encoded as the predicate ``channel > 0.5`` over a 0/1 channel.
    """

    def __init__(self, channel: str):
        super().__init__(channel, ">", 0.5)

    def _rebuild(self, children):
        return Signal(self.channel)

    def __str__(self) -> str:
        return self.channel


class Not(Formula):
    def __init__(self, child: Formula):
        self.children = (child,)

    @property
    def child(self) -> Formula:
        return self.children[0]

    def _rebuild(self, children):
        return Not(children[0])

    def __str__(self) -> str:
        return f"!{self.children[0]}"


class _Nary(Formula):
    _symbol = "?"

    def __init__(self, operands: Sequence[Formula]):
        operands = tuple(operands)
        if len(operands) < 1:
            raise ValueError(f"{type(self).__name__} needs at least one operand")
        self.children = operands

    def _rebuild(self, children):
        return type(self)(children)

    def __str__(self) -> str:
        return "(" + f" {self._symbol} ".join(str(c) for c in self.children) + ")"


class And(_Nary):
    """Conjunction of one or more formulas."""

    _symbol = "&"


class Or(_Nary):
    """Disjunction of one or more formulas."""

    _symbol = "|"


class Implies(Formula):
    def __init__(self, antecedent: Formula, consequent: Formula):
        self.children = (antecedent, consequent)

    @property
    def antecedent(self) -> Formula:
        return self.children[0]

    @property
    def consequent(self) -> Formula:
        return self.children[1]

    def _rebuild(self, children):
        return Implies(children[0], children[1])

    def __str__(self) -> str:
        return f"({self.children[0]} -> {self.children[1]})"


class _Temporal(Formula):
    """Base for unary temporal operators with a ``[lo, hi]`` window in minutes.

    ``hi=None`` means "until the end of the trace" (the paper's ``[t0, te]``
    with ``te`` the simulation end).
    """

    _symbol = "?"

    def __init__(self, child: Formula, lo: float = 0.0, hi: Optional[float] = None):
        if lo < 0:
            raise ValueError(f"temporal lower bound must be >= 0, got {lo}")
        if hi is not None and hi < lo:
            raise ValueError(f"temporal window [{lo}, {hi}] is empty")
        self.children = (child,)
        self.lo = float(lo)
        self.hi = None if hi is None else float(hi)

    @property
    def child(self) -> Formula:
        return self.children[0]

    def _rebuild(self, children):
        return type(self)(children[0], self.lo, self.hi)

    def _window(self) -> str:
        hi = "end" if self.hi is None else f"{self.hi:g}"
        return f"[{self.lo:g},{hi}]"

    def __str__(self) -> str:
        return f"{self._symbol}{self._window()}({self.children[0]})"


class Globally(_Temporal):
    """``G[lo,hi] phi`` — phi holds at every sample in the window."""

    _symbol = "G"


class Eventually(_Temporal):
    """``F[lo,hi] phi`` — phi holds at some sample in the window."""

    _symbol = "F"


class _BinTemporal(Formula):
    _symbol = "?"

    def __init__(self, left: Formula, right: Formula, lo: float = 0.0,
                 hi: Optional[float] = None):
        if lo < 0:
            raise ValueError(f"temporal lower bound must be >= 0, got {lo}")
        if hi is not None and hi < lo:
            raise ValueError(f"temporal window [{lo}, {hi}] is empty")
        self.children = (left, right)
        self.lo = float(lo)
        self.hi = None if hi is None else float(hi)

    @property
    def left(self) -> Formula:
        return self.children[0]

    @property
    def right(self) -> Formula:
        return self.children[1]

    def _rebuild(self, children):
        return type(self)(children[0], children[1], self.lo, self.hi)

    def __str__(self) -> str:
        hi = "end" if self.hi is None else f"{self.hi:g}"
        return f"({self.children[0]} {self._symbol}[{self.lo:g},{hi}] {self.children[1]})"


class Until(_BinTemporal):
    """``left U[lo,hi] right`` — right eventually holds, left holds until then."""

    _symbol = "U"


class Since(_BinTemporal):
    """``left S[lo,hi] right`` — right held at some past sample, left since then.

    The paper's HMS formula (Eq. 2) uses *since* to require a mitigation
    action within ``ts`` minutes of entering an unsafe context.
    """

    _symbol = "S"


def all_params(formula: Formula) -> Dict[str, Optional[float]]:
    """Map of every ``Param`` name in *formula* to its default (or None)."""
    out: Dict[str, Optional[float]] = {}
    stack = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, Predicate) and isinstance(node.threshold, Param):
            out[node.threshold.name] = node.threshold.default
        stack.extend(node.children)
    return out
