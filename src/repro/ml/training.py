"""Parallel training jobs for the ML baseline monitors.

The paper's Table VI/VIII results come from training *many independent*
classifiers: one per model kind, per cross-validation fold, per patient,
per head type.  Each fit is serial, but the fits themselves share nothing —
exactly the shape :func:`repro.parallel.map_chunks` scales campaign
simulation and monitor replay with.  This module fans the fits out the
same way, one fit per chunk:

- :class:`TrainingJob` names one fit — model kind x fold x patient x
  hyperparameters — as a frozen value object.  Its training data selection
  (:func:`select_job_traces`) and its RNG seed (:meth:`TrainingJob.job_seed`,
  derived from the job's identity, never from its position in a worker's
  queue) depend only on the job itself, which is what makes the fan-out
  deterministic: ``workers=N`` produces element-wise identical monitors to
  the serial loop, for every N.
- :func:`run_training_jobs` materialises each job's dataset once in the
  parent — optionally memory-mapped under ``mmap_root`` (see
  :mod:`repro.ml.memmap`), in which case forked workers share the physical
  pages — and fans the fits out one job per chunk.  Jobs that need the
  same dataset (DT and MLP over the same split) share one
  materialisation.
- :func:`monitor_state` flattens any trained monitor into a canonical list
  of arrays, so "these two training runs produced the same monitor" is an
  exact ``np.array_equal`` check — the contract the parity suite and the
  CI smoke enforce.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.monitor import SafetyMonitor
from ..parallel import map_chunks
from ..simulation.store import TraceDataset, TraceDatasetView
from .datasets import build_point_dataset, build_window_dataset
from .monitors import DTMonitor, LSTMMonitor, MLPMonitor
from .nn import LSTMClassifier, MLPClassifier
from .tree import DecisionTreeClassifier

__all__ = ["TrainingJob", "TrainedMonitor", "run_training_jobs",
           "train_job", "select_job_traces", "job_dataset", "monitor_state",
           "job_grid"]

#: model kind -> (monitor display name, needs window dataset)
_KINDS: Dict[str, Tuple[str, bool]] = {
    "dt": ("DT", False),
    "mlp": ("MLP", False),
    "lstm": ("LSTM", True),
}


@dataclass(frozen=True)
class TrainingJob:
    """One independent monitor fit: kind x patient x fold x hyperparams.

    ``patient_id=None`` trains on every patient; ``fold=None`` trains on
    the full selection, otherwise on the round-robin *training* side of
    the ``fold``-th of ``folds`` splits (the same membership
    :func:`~repro.simulation.batch.kfold_split` produces).  ``hyperparams``
    is a sorted tuple of ``(name, value)`` pairs passed to the underlying
    classifier constructor — build jobs with :meth:`make` to get the
    normalisation for free.
    """

    kind: str
    patient_id: Optional[str] = None
    fold: Optional[int] = None
    folds: Optional[int] = None
    multiclass: bool = False
    bg_target: float = 120.0
    seed: int = 0
    window: int = 6  # LSTM input window k
    hyperparams: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown model kind {self.kind!r}; available: "
                f"{sorted(_KINDS)}")
        if self.fold is not None:
            if self.folds is None or self.folds < 2:
                raise ValueError(
                    f"fold={self.fold} needs folds >= 2, got {self.folds}")
            if not 0 <= self.fold < self.folds:
                raise ValueError(
                    f"fold must be in [0, {self.folds}), got {self.fold}")
        if self.window < 1:
            raise ValueError(f"window k must be >= 1, got {self.window}")

    @classmethod
    def make(cls, kind: str, *, patient_id: Optional[str] = None,
             fold: Optional[int] = None, folds: Optional[int] = None,
             multiclass: bool = False, bg_target: float = 120.0,
             seed: int = 0, window: int = 6, **hyperparams) -> "TrainingJob":
        """Build a job with keyword hyperparameters, e.g.
        ``TrainingJob.make("mlp", fold=0, folds=4, max_epochs=10)``."""
        return cls(kind=kind.lower(), patient_id=patient_id, fold=fold,
                   folds=folds, multiclass=multiclass, bg_target=bg_target,
                   seed=seed, window=window,
                   hyperparams=tuple(sorted(hyperparams.items())))

    @property
    def monitor_name(self) -> str:
        """Display name of the trained monitor ("DT" / "MLP" / "LSTM")."""
        return _KINDS[self.kind][0]

    @property
    def needs_window(self) -> bool:
        return _KINDS[self.kind][1]

    def job_seed(self) -> int:
        """Deterministic RNG seed derived from the job's identity.

        Two jobs differing in any identity field train from different
        seeds; the *same* job trains from the same seed in every process,
        chunk layout and worker count — the root of the serial/parallel
        parity guarantee.  (The DT has no RNG and ignores this.)
        """
        doc = [self.seed, self.kind, self.patient_id, self.fold, self.folds,
               self.multiclass, self.window,
               [[name, repr(value)] for name, value in self.hyperparams]]
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return int.from_bytes(
            hashlib.sha256(blob.encode("utf-8")).digest()[:4], "little")

    def dataset_key(self) -> tuple:
        """Identity of the training matrix this job consumes.  DT and MLP
        jobs over the same selection share one dataset."""
        kind = "window" if self.needs_window else "point"
        k = self.window if self.needs_window else None
        return (kind, k, self.multiclass, self.patient_id, self.fold,
                self.folds)

    def dataset_slug(self) -> str:
        """Filesystem-safe directory name for the job's mmap dataset."""
        kind, k, multiclass, patient, fold, folds = self.dataset_key()
        return "-".join([
            kind if k is None else f"{kind}{k}",
            "mc" if multiclass else "bin",
            f"p{patient}" if patient is not None else "pall",
            "full" if fold is None else f"f{fold}of{folds}",
        ])


@dataclass
class TrainedMonitor:
    """Outcome of one training job."""

    job: TrainingJob
    monitor: SafetyMonitor
    n_samples: int
    n_features: int

    @property
    def name(self) -> str:
        return self.job.monitor_name


def select_job_traces(job: TrainingJob, traces: Sequence) -> Sequence:
    """The training traces of *job* within the full campaign sequence.

    Patient filtering and the round-robin fold split stay *lazy* on
    :class:`~repro.simulation.store.TraceDataset` sequences (index views,
    no shard loads); plain sequences come back as lists.  The resulting
    membership and order match ``kfold_split(patient_traces, folds,
    fold)[0]`` exactly, so the job API trains on the same data the
    hand-rolled experiment loops did.
    """
    if job.patient_id is not None:
        if isinstance(traces, TraceDataset):
            traces = traces.by_patient(job.patient_id)
        else:
            traces = [t for t in traces if t.patient_id == job.patient_id]
    if job.fold is None:
        return traces
    keep = [i for i in range(len(traces)) if i % job.folds != job.fold]
    if isinstance(traces, (TraceDataset, TraceDatasetView)):
        return traces.subset(keep)
    return [traces[i] for i in keep]


def job_dataset(job: TrainingJob, traces: Sequence,
                mmap_root: Optional[str] = None,
                workers: Optional[int] = None
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Build (or reopen) the training matrix of one job.

    With *mmap_root*, the matrix lives under
    ``<mmap_root>/<job.dataset_slug()>/`` and comes back memory-mapped;
    an existing finished directory is reused without re-extracting.
    """
    selected = select_job_traces(job, traces)
    mmap_dir = (os.path.join(mmap_root, job.dataset_slug())
                if mmap_root is not None else None)
    if job.needs_window:
        return build_window_dataset(selected, k=job.window,
                                    multiclass=job.multiclass,
                                    workers=workers, mmap_dir=mmap_dir)
    return build_point_dataset(selected, multiclass=job.multiclass,
                               workers=workers, mmap_dir=mmap_dir)


def train_job(job: TrainingJob, X: np.ndarray, y: np.ndarray
              ) -> TrainedMonitor:
    """Fit one job on an already-built dataset.

    The single place model construction happens — the serial loop, the
    forked workers and ad-hoc callers all come through here, which is what
    guarantees a job trains identically wherever it runs.
    """
    hyper = dict(job.hyperparams)
    n_classes = 3 if job.multiclass else 2
    if job.kind == "dt":
        model = DecisionTreeClassifier(**hyper).fit(X, y)
        monitor: SafetyMonitor = DTMonitor(model, multiclass=job.multiclass,
                                           bg_target=job.bg_target)
    elif job.kind == "mlp":
        model = MLPClassifier(n_classes=n_classes, seed=job.job_seed(),
                              **hyper).fit(X, y)
        monitor = MLPMonitor(model, multiclass=job.multiclass,
                             bg_target=job.bg_target)
    else:  # lstm
        model = LSTMClassifier(n_classes=n_classes, seed=job.job_seed(),
                               **hyper).fit(X, y)
        monitor = LSTMMonitor(model, k=job.window, multiclass=job.multiclass,
                              bg_target=job.bg_target)
    return TrainedMonitor(job=job, monitor=monitor, n_samples=len(X),
                          n_features=int(X.shape[-1]))


def run_training_jobs(jobs: Sequence[TrainingJob], traces: Sequence,
                      workers: Optional[int] = None,
                      mmap_root: Optional[str] = None
                      ) -> List[TrainedMonitor]:
    """Train every job, one job per :func:`~repro.parallel.map_chunks` chunk.

    Parameters
    ----------
    jobs:
        The fits to run; results come back in job order.
    traces:
        The full campaign sequence every job selects its training data
        from (lazy :class:`~repro.simulation.store.TraceDataset` supported
        and preferred at scale).
    workers:
        Process count (None: ``REPRO_WORKERS`` env, or 1).  Datasets are
        materialised once in the parent before the pool forks, so workers
        inherit the matrices — memory-mapped pages when *mmap_root* is
        set — instead of being sent pickled copies; only the (small)
        trained monitors travel back.
    mmap_root:
        Directory for memory-mapped dataset materialisation; None keeps
        the matrices in (shared, copy-on-write) memory.  The backing
        store never changes a matrix element (see
        :func:`~repro.ml.datasets.build_point_dataset`), so trained
        monitors are identical with or without it; a finished directory
        is reused as-is on the next call.

    The result is element-wise identical — every weight, every split
    threshold — for every worker count, because each job's data selection
    and seed derive from the job alone (:meth:`TrainingJob.job_seed`).
    """
    jobs = list(jobs)
    datasets: Dict[tuple, Tuple[np.ndarray, np.ndarray]] = {}
    for job in jobs:
        key = job.dataset_key()
        if key not in datasets:
            datasets[key] = job_dataset(job, traces, mmap_root=mmap_root,
                                        workers=workers)

    def train_one(chunk) -> TrainedMonitor:
        (job,) = chunk
        return train_job(job, *datasets[job.dataset_key()])

    return list(map_chunks(train_one, jobs, 1, workers))


def monitor_state(monitor: SafetyMonitor) -> List[np.ndarray]:
    """Canonical array flattening of a trained ML monitor.

    Two monitors are the *same trained model* iff their states are
    element-wise equal — decision trees compare node-by-node in preorder,
    the neural monitors compare scaler statistics plus every parameter
    array.  This is the equality the serial/parallel parity suite (and the
    CI training smoke) asserts.
    """
    model = monitor.model
    if isinstance(model, DecisionTreeClassifier):
        features, thresholds, counts = model.node_arrays()
        return [features, thresholds, counts,
                np.asarray(model.classes_, dtype=float)]
    state = [np.asarray(model.scaler.mean), np.asarray(model.scaler.std)]
    for layer in model.layers:
        state.extend(layer.params)
    return state


def job_grid(kinds: Sequence[str], *, folds: Optional[int] = None,
             fold_values: Sequence[Optional[int]] = (None,),
             patient_ids: Sequence[Optional[str]] = (None,),
             **common) -> List[TrainingJob]:
    """Cartesian job grid: every kind x fold x patient combination."""
    return [TrainingJob.make(kind, patient_id=pid, fold=fold, folds=folds,
                             **common)
            for pid in patient_ids for fold in fold_values for kind in kinds]
