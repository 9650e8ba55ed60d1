"""Parametric proposal distribution for the cross-entropy search.

The proposal factorises over the mixed scenario space: a categorical over
the qualitative families and an axis-aligned truncated Gaussian over the
six continuous unit-cube dimensions.  Cross-entropy refitting moves both
toward the elite fraction with exponential smoothing, and a standard-
deviation floor keeps the proposal from collapsing to a point (de Boer et
al.'s classic smoothed-CE update; O'Kelly et al. use the same family for
AP-controller risk search).

Everything here is driven by an externally supplied
:class:`numpy.random.Generator`, so the *caller* owns determinism: the
search loop hands each iteration a child seed spawned from the root seed,
which is what makes results bit-identical at any ``workers=`` and
lock-step width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["Proposal"]

#: Dirichlet-style smoothing count added per family when refitting the
#: categorical, so no family's probability ever hits exactly zero and the
#: search keeps a tail of exploration
CATEGORY_SMOOTHING = 0.5


@dataclass(frozen=True)
class Proposal:
    """One generation's sampling distribution.

    Attributes
    ----------
    family_probs:
        Categorical probabilities over the scenario families, shape ``(F,)``.
    mean, std:
        Per-dimension Gaussian parameters in unit-cube coordinates, shape
        ``(D,)``.  Samples are clipped to ``[0, 1]`` (truncation by
        projection — cheap, deterministic, and exact enough for CE).
    """

    family_probs: np.ndarray
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.family_probs, dtype=float)
        mean = np.asarray(self.mean, dtype=float)
        std = np.asarray(self.std, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("family_probs must be a non-empty 1-D array")
        if not np.isclose(probs.sum(), 1.0) or np.any(probs < 0):
            raise ValueError("family_probs must be a probability vector")
        if mean.shape != std.shape or mean.ndim != 1:
            raise ValueError("mean and std must be matching 1-D arrays")
        if np.any(std <= 0):
            raise ValueError("std must be strictly positive")
        object.__setattr__(self, "family_probs", probs)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)

    @classmethod
    def uniform(cls, n_families: int, n_dims: int) -> "Proposal":
        """The exploration-phase proposal: uniform families, wide Gaussians.

        A centred Gaussian with sigma 0.35, clipped to the unit interval,
        covers the whole cube with meaningful mass at both edges — close
        enough to uniform for generation zero while already being in the
        family CE refits stay in.
        """
        if n_families < 1 or n_dims < 1:
            raise ValueError("need at least one family and one dimension")
        return cls(family_probs=np.full(n_families, 1.0 / n_families),
                   mean=np.full(n_dims, 0.5), std=np.full(n_dims, 0.35))

    def sample(self, rng: np.random.Generator,
               n: int) -> Tuple[np.ndarray, np.ndarray]:
        """Draw *n* scenarios: ``(families (n,), unit_cube (n, D))``.

        Exactly two generator calls in a fixed order, so the draw is a
        pure function of (proposal, generator state, n).
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        families = rng.choice(len(self.family_probs), size=n,
                              p=self.family_probs)
        u = rng.normal(self.mean, self.std, size=(n, self.mean.size))
        return families, np.clip(u, 0.0, 1.0)

    def refit(self, elite_families: np.ndarray, elite_u: np.ndarray,
              smoothing: float = 0.7, std_floor: float = 0.05) -> "Proposal":
        """Smoothed CE update toward the elite set.

        ``new = (1 - smoothing) * old + smoothing * elite_estimate`` for
        the categorical (with :data:`CATEGORY_SMOOTHING` pseudo-counts),
        the means, and the standard deviations; stds are floored at
        *std_floor* so late generations keep local exploration.
        """
        if not 0.0 < smoothing <= 1.0:
            raise ValueError(f"smoothing must be in (0, 1], got {smoothing}")
        if std_floor <= 0:
            raise ValueError(f"std_floor must be positive, got {std_floor}")
        elite_families = np.asarray(elite_families)
        elite_u = np.asarray(elite_u, dtype=float)
        if elite_u.ndim != 2 or elite_u.shape[1] != self.mean.size:
            raise ValueError(
                f"elite_u must have shape (n_elite, {self.mean.size}), got "
                f"{elite_u.shape}")
        if len(elite_families) != len(elite_u) or len(elite_u) == 0:
            raise ValueError("elite arrays must be non-empty and aligned")

        counts = np.bincount(elite_families,
                             minlength=len(self.family_probs)).astype(float)
        counts += CATEGORY_SMOOTHING
        elite_probs = counts / counts.sum()
        probs = (1.0 - smoothing) * self.family_probs + smoothing * elite_probs
        probs /= probs.sum()

        elite_mean = elite_u.mean(axis=0)
        elite_std = elite_u.std(axis=0)
        mean = (1.0 - smoothing) * self.mean + smoothing * elite_mean
        std = np.maximum((1.0 - smoothing) * self.std + smoothing * elite_std,
                         std_floor)
        return Proposal(family_probs=probs, mean=mean, std=std)
