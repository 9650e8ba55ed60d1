"""Experiment configuration and scale presets.

``full`` is the paper's scale (882 injections x 10 patients per platform);
the smaller presets subsample the same grids so CI-sized runs exercise every
code path with the same structure.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple

from ..patients import patient_ids

__all__ = ["ExperimentConfig", "PRESETS"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiment modules.

    Attributes
    ----------
    platform:
        ``"glucosym"`` (OpenAPS) or ``"t1ds2013"`` (Basal-Bolus).
    patients:
        Cohort subset to run.
    stride:
        Campaign subsampling stride (1 = the paper's 882 per patient).
    n_steps:
        Cycles per simulation (paper: 150).
    folds:
        Cross-validation folds for threshold learning (paper: 4).
    tolerance:
        Tolerance window delta in cycles for sample-level metrics.
    mining_window:
        Pre-hazard mining window (cycles) for threshold learning.
    mpc_horizon:
        MPC baseline prediction horizon (cycles).
    lstm_window:
        LSTM input window k (paper: 6).
    ml_epochs:
        Training epochs for the MLP/LSTM baselines.
    seed:
        Seed for ML training.
    workers:
        Process-pool size for campaign simulation, monitor replay,
        threshold learning — including the per-fold fits of
        :func:`~repro.core.learn_fold_thresholds` — and the DT/MLP/LSTM
        training jobs (:func:`~repro.ml.run_training_jobs`); 1 = serial.
        Results are element-wise identical for every worker count, so
        this is excluded from :meth:`cache_key`.
    dataset_dir:
        When set, campaign and fault-free traces are streamed into an
        on-disk dataset under this root (one subdirectory per
        :meth:`dataset_slug`) on the first run and lazily reopened —
        without resimulating — by every later experiment invocation, in
        this process or the next ("run once, replay many").  The ML
        feature matrices are likewise materialised memory-mapped under
        ``<slug>/ml/`` so training workers share pages instead of
        holding private copies.  Traces and matrices are identical to
        the in-memory path, so this too is excluded from
        :meth:`cache_key`.
    """

    platform: str = "glucosym"
    patients: Tuple[str, ...] = ("A", "B", "C")
    stride: int = 7
    n_steps: int = 150
    folds: int = 4
    tolerance: int = 24
    mining_window: int = 12
    mpc_horizon: int = 24
    lstm_window: int = 6
    ml_epochs: int = 12
    seed: int = 0
    workers: int = 1
    dataset_dir: Optional[str] = None

    def __post_init__(self):
        if self.stride < 1 or self.folds < 2 or self.n_steps < 20:
            raise ValueError("invalid experiment configuration")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    @property
    def scenarios_per_patient(self) -> int:
        return (882 + self.stride - 1) // self.stride

    def cache_key(self) -> tuple:
        """Key identifying the simulation data this config needs."""
        return (self.platform, self.patients, self.stride, self.n_steps)

    def dataset_slug(self) -> str:
        """Directory name for this config's on-disk dataset (one per
        simulation grid, shared by every worker count).  The cohort digest
        keeps two different patient subsets of the same size from
        colliding on one directory."""
        cohort = hashlib.sha256(
            "/".join(self.patients).encode("utf-8")).hexdigest()[:8]
        return (f"{self.platform}-p{len(self.patients)}-{cohort}"
                f"-s{self.stride}-n{self.n_steps}")

    @classmethod
    def preset(cls, name: str, platform: str = "glucosym",
               workers: int = 1) -> "ExperimentConfig":
        """Build a named preset for one platform."""
        if name not in PRESETS:
            raise KeyError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
        cohort = patient_ids(platform)
        spec = PRESETS[name]
        patients = tuple(cohort[:spec["n_patients"]])
        return cls(platform=platform, patients=patients, stride=spec["stride"],
                   folds=spec["folds"], ml_epochs=spec["ml_epochs"],
                   workers=workers)


#: preset name -> scale parameters.  ``ci`` is the continuous-integration
#: grid: big enough (2 patients x 42 scenarios) to amortise worker start-up
#: and exercise multi-patient sharding, small enough to finish in seconds.
PRESETS = {
    "smoke": {"n_patients": 1, "stride": 63, "folds": 2, "ml_epochs": 3},
    "ci": {"n_patients": 2, "stride": 21, "folds": 2, "ml_epochs": 3},
    "small": {"n_patients": 3, "stride": 7, "folds": 4, "ml_epochs": 10},
    "medium": {"n_patients": 10, "stride": 7, "folds": 4, "ml_epochs": 15},
    "full": {"n_patients": 10, "stride": 1, "folds": 4, "ml_epochs": 25},
}
