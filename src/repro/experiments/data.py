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

Each memo keys on every :class:`ExperimentConfig` field its value reads;
``workers`` is in no key, since results are identical for every worker
count.  Traces live in lists for the process lifetime, and the replay
memos hold read-only alert arrays; the ML alerts live and die with their
models.  :func:`clear_cache` drops every memo.

A campaign stored on disk is not an input here: reopen it as a
:class:`~repro.simulation.store.TraceDataset` and hand that to
:func:`~repro.simulation.replay_campaign`,
:func:`~repro.core.learn_thresholds` or
:func:`~repro.ml.run_training_jobs`, which read it lazily.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from ..baselines import GuidelineMonitor, MPCMonitor
from ..core import (cawot_monitor, cawt_monitor, learn_fold_thresholds,
                    learn_thresholds)
from ..core.monitor import SafetyMonitor
from ..fi import CampaignConfig, INITIAL_GLUCOSE_VALUES, generate_campaign
from ..ml import TrainingJob, run_training_jobs
from ..simulation import (BASELINE_CACHE, kfold_split, replay_campaign,
                          replay_many, run_campaign, run_fault_free)
from .config import ExperimentConfig

__all__ = ["PlatformData", "platform_data", "clear_cache",
           "cawt_cv_replay", "baseline_monitors", "baseline_alerts",
           "ml_baseline_jobs", "ml_monitors", "ml_test_alerts",
           "train_test_split"]

#: name -> one read-only alert array per replayed trace
Alerts = Dict[str, Tuple[np.ndarray, ...]]

#: grid -> {config: its PlatformData}; one grid's configs share the traces
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

    ``traces`` / ``fault_free`` are lists in (patient, scenario) plan
    order.  ``config`` is the config it was requested with; configs of one
    grid share the traces.
    """

    config: ExperimentConfig
    traces: List                # faulty campaign traces, patient-major order
    fault_free: List            # fault-free runs over the init-BG grid
    by_patient: Dict[str, List]
    fault_free_by_patient: Dict[str, List]

    @property
    def hazard_fraction(self) -> float:
        return sum(t.hazardous for t in self.traces) / len(self.traces)


def _group_by_patient(traces: Sequence,
                      patients: Sequence[str]) -> Dict[str, List]:
    grouped: Dict[str, List] = {pid: [] for pid in patients}
    for trace in traces:
        grouped[trace.patient_id].append(trace)
    return grouped


def _simulate(config: ExperimentConfig) -> PlatformData:
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
    """Simulate (or fetch cached) campaign data for *config*.

    The traces are memoised per grid (:meth:`ExperimentConfig.cache_key`).
    The returned data carries *config* itself, so the ``folds``,
    ``mining_window`` and ``workers`` read downstream are the caller's; an
    equal config gets the same object back.
    """
    views = _DATA_CACHE.setdefault(config.cache_key(), {})
    if config not in views:
        if views:
            data = dataclasses.replace(next(iter(views.values())),
                                       config=config)
        else:
            data = _simulate(config)
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


def train_test_split(data: PlatformData) -> Tuple[List, List]:
    """The fold-0 split of the campaign (used for ML training)."""
    return kfold_split(data.traces, data.config.folds, 0)


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
    identical results to the serial loop.
    """
    key = _ml_key(data.config, multiclass)
    if key in _ML_CACHE:
        return _ML_CACHE[key][0]
    config = data.config
    trained = run_training_jobs(ml_baseline_jobs(config, multiclass),
                                data.traces, workers=config.workers)
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
