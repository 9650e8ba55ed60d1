"""Shared simulation data, trained monitors and their replayed alerts.

Every experiment needs the same expensive artifacts: the fault-injection
campaign traces (simulated once, without a monitor — monitors are passive
and can be *replayed*, see :mod:`repro.simulation.replay`), the fault-free
reference runs, per-patient CAWT thresholds, and the trained ML baselines.
This module builds and memoises them so the whole table/figure suite costs
one campaign per platform, one fit per ML monitor set and one replay per
shared monitor set: the CAWOT/Guideline/MPC alerts over the campaign
(Table V, Fig. 9) and the DT/MLP/LSTM alerts over the fold-0 test split
(Table VI, Fig. 9, the multi-class ablation).

Each memo keys on every :class:`ExperimentConfig` field its value reads.
``workers`` is in no key and ``dataset_dir`` only in the traces' key:
results are identical across both.  The replay memos hold read-only
alert arrays and never materialised traces, so a store-backed campaign
stays lazy; the ML alerts live and die with their models.
:func:`clear_cache` drops every memo.

Two backing modes, selected by ``ExperimentConfig.dataset_dir``:

- **in-memory** (default): traces live in lists for the process lifetime;
- **on-disk**: the campaign is streamed through a
  :class:`~repro.simulation.store.CampaignStoreWriter` on first run and
  lazily reopened as a :class:`~repro.simulation.store.TraceDataset` by
  every later invocation — including in *other* processes — so a grid is
  simulated once and replayed many times ("run once, replay many").  A
  fingerprint check guarantees the directory actually holds the campaign
  the config describes.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from ..baselines import GuidelineMonitor, MPCMonitor
from ..core import (cawot_monitor, cawt_monitor, learn_fold_thresholds,
                    learn_thresholds)
from ..core.monitor import SafetyMonitor
from ..fi import CampaignConfig, INITIAL_GLUCOSE_VALUES, generate_campaign
from ..ml import TrainingJob, run_training_jobs
from ..simulation import (BASELINE_CACHE, CampaignStoreError,
                          CampaignStoreWriter, TraceDataset, kfold_split,
                          plan_campaign, plan_fault_free, plan_fingerprint,
                          replay_campaign, replay_many, run_campaign,
                          run_fault_free)
from ..simulation.store import manifest_path
from .config import ExperimentConfig

__all__ = ["PlatformData", "platform_data", "clear_cache",
           "cawt_cv_replay", "baseline_monitors", "baseline_alerts",
           "ml_baseline_jobs", "ml_monitors", "ml_test_alerts",
           "train_test_split"]

#: name -> one read-only alert array per replayed trace
Alerts = Dict[str, Tuple[np.ndarray, ...]]

#: (grid, dataset_dir) -> {config: its PlatformData}; one grid's configs
#: share the traces
_DATA_CACHE: Dict[tuple, Dict[ExperimentConfig, "PlatformData"]] = {}
#: ML key (see :func:`_ml_key`) -> (trained monitors, their fold-0 test
#: alerts once replayed): dropped together, so retrained models are never
#: scored with an earlier fit's alerts
_ML_CACHE: Dict[tuple, Tuple[Dict[str, SafetyMonitor], Alerts]] = {}
#: (grid, mpc_horizon) -> CAWOT/Guideline/MPC alerts over the campaign
_BASELINE_ALERTS: Dict[tuple, Alerts] = {}


@dataclass
class PlatformData:
    """Campaign + fault-free traces for one (platform, scale) choice.

    ``traces`` / ``fault_free`` are in-memory lists by default, or lazy
    :class:`~repro.simulation.store.TraceDataset` sequences when the config
    carries a ``dataset_dir`` — every consumer treats them uniformly as
    sequences in (patient, scenario) plan order.  ``config`` is the
    config it was requested with; configs of one grid share the traces.
    """

    config: ExperimentConfig
    traces: Sequence            # faulty campaign traces, patient-major order
    fault_free: Sequence        # fault-free runs over the init-BG grid
    by_patient: Dict[str, Sequence]
    fault_free_by_patient: Dict[str, Sequence]

    @property
    def hazard_fraction(self) -> float:
        return sum(t.hazardous for t in self.traces) / len(self.traces)


def _group_by_patient(traces: Sequence,
                      patients: Sequence[str]) -> Dict[str, List]:
    grouped: Dict[str, List] = {pid: [] for pid in patients}
    for trace in traces:
        grouped[trace.patient_id].append(trace)
    return grouped


def _ensure_store(directory: str, plan, folds: int,
                  simulate: Callable[[CampaignStoreWriter], None]
                  ) -> TraceDataset:
    """Open the dataset at *directory*, writing it first if absent.

    The reopened dataset's fingerprint must match the plan's — a mismatch
    means the directory holds some *other* campaign and is an error, not
    something to silently overwrite.
    """
    expected = plan_fingerprint(plan)
    if not os.path.exists(manifest_path(directory)):
        with CampaignStoreWriter(directory, plan.platform, plan.n_steps,
                                 folds=folds) as sink:
            simulate(sink)
    dataset = TraceDataset.open(directory)
    if dataset.fingerprint != expected:
        raise CampaignStoreError(
            f"dataset at {directory} holds a different campaign "
            f"(fingerprint {dataset.fingerprint[:12]}..., expected "
            f"{expected[:12]}...); point dataset_dir elsewhere or remove "
            "the stale directory")
    _check_folds(dataset, folds)
    return dataset


def _check_folds(dataset: TraceDataset, folds: int) -> None:
    if dataset.folds != folds:
        raise CampaignStoreError(
            f"dataset at {dataset.directory} was written with "
            f"folds={dataset.folds} but the config expects folds={folds}; "
            "its recorded fold keys would describe the wrong split — use "
            "a different dataset_dir or remove the stale directory")


def _store_backed_data(config: ExperimentConfig) -> PlatformData:
    """Run-once/replay-many: stream the grid to disk, reopen lazily."""
    root = os.path.join(config.dataset_dir, config.dataset_slug())
    scenarios = generate_campaign(CampaignConfig(stride=config.stride))
    campaign_plan = plan_campaign(config.platform, config.patients,
                                  scenarios, n_steps=config.n_steps)
    ff_plan = plan_fault_free(config.platform, config.patients,
                              INITIAL_GLUCOSE_VALUES, n_steps=config.n_steps)
    traces = _ensure_store(
        os.path.join(root, "campaign"), campaign_plan, config.folds,
        lambda sink: run_campaign(config.platform, config.patients,
                                  scenarios, n_steps=config.n_steps,
                                  workers=config.workers, sink=sink))
    fault_free = _ensure_store(
        os.path.join(root, "fault_free"), ff_plan, config.folds,
        lambda sink: run_fault_free(config.platform, config.patients,
                                    INITIAL_GLUCOSE_VALUES,
                                    n_steps=config.n_steps,
                                    workers=config.workers, sink=sink))
    return PlatformData(
        config=config, traces=traces, fault_free=fault_free,
        by_patient={pid: traces.by_patient(pid) for pid in config.patients},
        fault_free_by_patient={pid: fault_free.by_patient(pid)
                               for pid in config.patients})


def _in_memory_data(config: ExperimentConfig) -> PlatformData:
    campaign = generate_campaign(CampaignConfig(stride=config.stride))
    traces = run_campaign(config.platform, config.patients, campaign,
                          n_steps=config.n_steps, workers=config.workers)
    fault_free = run_fault_free(config.platform, config.patients,
                                INITIAL_GLUCOSE_VALUES, n_steps=config.n_steps,
                                workers=config.workers)
    return PlatformData(
        config=config, traces=traces, fault_free=fault_free,
        by_patient=_group_by_patient(traces, config.patients),
        fault_free_by_patient=_group_by_patient(fault_free, config.patients))


def platform_data(config: ExperimentConfig) -> PlatformData:
    """Simulate (or fetch cached / stored) campaign data for *config*.

    The traces are memoised per grid (:meth:`ExperimentConfig.cache_key`
    and ``dataset_dir``).  The returned data carries *config* itself, so
    the ``folds``, ``mining_window`` and ``workers`` read downstream are
    the caller's; an equal config gets the same object back.
    """
    grid = config.cache_key() + (config.dataset_dir,)
    views = _DATA_CACHE.setdefault(grid, {})
    if config not in views:
        if views:
            data = dataclasses.replace(next(iter(views.values())),
                                       config=config)
            if config.dataset_dir:
                _check_folds(data.traces, config.folds)
        elif config.dataset_dir:
            data = _store_backed_data(config)
        else:
            data = _in_memory_data(config)
        views[config] = data
    return views[config]


def clear_cache() -> None:
    """Drop all cached simulations, models and replayed alerts (tests /
    memory control)."""
    _DATA_CACHE.clear()
    _ML_CACHE.clear()
    _BASELINE_ALERTS.clear()
    BASELINE_CACHE.clear()


def _frozen_replay(monitors: Mapping[str, SafetyMonitor], traces: Sequence,
                   workers: int) -> Alerts:
    """:func:`~repro.simulation.replay_campaign`, with every alert array
    made read-only so the stages sharing one memoised replay cannot alter
    it."""
    alert_map = replay_campaign(monitors, traces, workers=workers)
    for alerts in alert_map.values():
        for seq in alerts:
            seq.flags.writeable = False
    return {name: tuple(alerts) for name, alerts in alert_map.items()}


# ----------------------------------------------------------------------
# monitors
# ----------------------------------------------------------------------

def cawt_cv_replay(data: PlatformData,
                   loss: str = "tmee") -> Tuple[List, List[np.ndarray]]:
    """Patient-specific CAWT under k-fold cross-validation.

    For each patient, thresholds are learned on the training folds (plus the
    patient's fault-free runs) and replayed on the held-out fold.  Returns
    the evaluation traces and matching alert sequences, covering every
    campaign trace exactly once.
    """
    config = data.config
    eval_traces: List = []
    alerts: List[np.ndarray] = []
    for pid in config.patients:
        patient_traces = data.by_patient[pid]
        ff = list(data.fault_free_by_patient[pid])
        # the per-fold fits are independent, so the folds — not just the
        # sample mining inside each fit — fan out across the pool
        fold_results = learn_fold_thresholds(
            patient_traces, config.folds, fault_free=ff, loss=loss,
            window=config.mining_window, workers=config.workers)
        for fold, result in enumerate(fold_results):
            _, test = kfold_split(patient_traces, config.folds, fold)
            monitor = cawt_monitor(result.thresholds)
            alerts.extend(replay_many(monitor, test,
                                      workers=config.workers))
            eval_traces.extend(test)
    return eval_traces, alerts


def cawt_full_thresholds(data: PlatformData, pid: str,
                         loss: str = "tmee") -> dict:
    """Thresholds learned from all of one patient's data (for mitigation)."""
    result = learn_thresholds(
        list(data.by_patient[pid]) + list(data.fault_free_by_patient[pid]),
        loss=loss, window=data.config.mining_window,
        workers=data.config.workers)
    return result.thresholds


def baseline_monitors(config: ExperimentConfig) -> Dict[str, SafetyMonitor]:
    """The non-ML baselines: CAWOT, Guideline, MPC."""
    return {
        "CAWOT": cawot_monitor(),
        "Guideline": GuidelineMonitor(),
        "MPC": MPCMonitor(horizon_steps=config.mpc_horizon),
    }


def baseline_alerts(data: PlatformData) -> Alerts:
    """CAWOT/Guideline/MPC alerts over the whole campaign (Table V, Fig. 9).

    Replayed once per grid and ``mpc_horizon``, at ``config.workers``.
    """
    config = data.config
    key = config.cache_key() + (config.mpc_horizon,)
    if key not in _BASELINE_ALERTS:
        _BASELINE_ALERTS[key] = _frozen_replay(
            baseline_monitors(config), data.traces, config.workers)
    return dict(_BASELINE_ALERTS[key])


def train_test_split(data: PlatformData) -> Tuple[Sequence, Sequence]:
    """The fold-0 split of the campaign (used for ML training).

    On store-backed data the split comes back as lazy index views — the
    same membership and order :func:`kfold_split` produces, but without
    materialising the campaign, so the reader's bounded-memory guarantee
    survives the ML paths too.
    """
    traces = data.traces
    k = data.config.folds
    if isinstance(traces, TraceDataset):
        indices = range(len(traces))
        return (traces.subset(i for i in indices if i % k != 0),
                traces.subset(i for i in indices if i % k == 0))
    return kfold_split(traces, k, 0)


def ml_baseline_jobs(config: ExperimentConfig,
                     multiclass: bool = False) -> List[TrainingJob]:
    """The Table VI training grid as :class:`~repro.ml.TrainingJob`s:
    DT/MLP/LSTM on the fold-0 training split of the campaign."""
    common = dict(fold=0, folds=config.folds, multiclass=multiclass,
                  seed=config.seed)
    return [
        TrainingJob.make("dt", max_depth=8, **common),
        TrainingJob.make("mlp", max_epochs=config.ml_epochs, **common),
        TrainingJob.make("lstm", window=config.lstm_window,
                         max_epochs=config.ml_epochs, **common),
    ]


def _ml_key(config: ExperimentConfig, multiclass: bool) -> tuple:
    """Every config field :func:`ml_baseline_jobs` and the fold-0 split
    read, plus the head type."""
    return config.cache_key() + (config.folds, config.seed, config.ml_epochs,
                                 config.lstm_window, multiclass)


def ml_monitors(data: PlatformData,
                multiclass: bool = False) -> Dict[str, SafetyMonitor]:
    """Trained DT/MLP/LSTM monitors (cached per training config and head
    type).

    The three fits run as a :func:`~repro.ml.run_training_jobs` fan-out:
    ``config.workers`` processes train concurrently with element-wise
    identical results to the serial loop.  When the config is
    store-backed (``dataset_dir``), the feature matrices are materialised
    memory-mapped next to the campaign shards (``.../ml/``) — built once,
    page-shared by every worker and every later invocation.
    """
    key = _ml_key(data.config, multiclass)
    if key in _ML_CACHE:
        return _ML_CACHE[key][0]
    config = data.config
    mmap_root = None
    if config.dataset_dir:
        mmap_root = os.path.join(config.dataset_dir, config.dataset_slug(),
                                 "ml")
    trained = run_training_jobs(ml_baseline_jobs(config, multiclass),
                                data.traces, workers=config.workers,
                                mmap_root=mmap_root)
    monitors = {t.name: t.monitor for t in trained}
    _ML_CACHE[key] = (monitors, {})
    return monitors


def ml_test_alerts(data: PlatformData, multiclass: bool = False) -> Alerts:
    """:func:`ml_monitors`' alerts over the fold-0 test split (Table VI,
    Fig. 9, the multi-class ablation), replayed once per fit at
    ``config.workers``."""
    monitors = ml_monitors(data, multiclass)
    alerts = _ML_CACHE[_ml_key(data.config, multiclass)][1]
    if not alerts:
        _, test = train_test_split(data)
        alerts.update(_frozen_replay(monitors, test, data.config.workers))
    return dict(alerts)
