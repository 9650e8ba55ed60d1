"""Section VI ablations.

- **Adversarial training** (Table-less, Section VI): thresholds refined from
  faulty traces vs. thresholds from fault-free data only.  The paper reports
  +11.3% EDR and +8.5% F1 from adversarial training.
- **Binary vs. multi-class ML monitors** (Section VI-1): retraining the ML
  baselines to also predict the hazard type costs them accuracy (>= 14.3%
  FNR increase), while CAWT gets the type for free from the SCS.  The
  binary head's alerts are Table VI's
  (:func:`~repro.experiments.data.ml_test_alerts`), so only the multi-class
  head is replayed here.
- **Fault-free generalisation** (Section VI-2): monitors evaluated on
  fault-free operation, where anything but silence is a false alarm.
"""

from __future__ import annotations

from ..core import cawt_monitor, learn_thresholds
from ..metrics import reaction_stats, traces_confusion
from ..simulation import replay_many
from .config import ExperimentConfig
from .data import ml_monitors, ml_test_alerts, platform_data, train_test_split
from .render import ExperimentResult

__all__ = ["run_adversarial_ablation", "run_multiclass_ablation",
           "run_fault_free_generalisation"]


def run_adversarial_ablation(config: ExperimentConfig) -> ExperimentResult:
    """CAWT thresholds from faulty (adversarial) vs fault-free data."""
    data = platform_data(config)
    train, test = train_test_split(data)

    variants = {}
    for pid in config.patients:
        ff = list(data.fault_free_by_patient[pid])
        train_p = [t for t in train if t.patient_id == pid]
        variants.setdefault("adversarial", {})[pid] = learn_thresholds(
            train_p + ff, window=config.mining_window).thresholds
        # fault-free only: no hazardous traces -> learning falls back to
        # safe-side bounds / defaults
        variants.setdefault("fault-free", {})[pid] = learn_thresholds(
            ff, window=config.mining_window).thresholds

    result = ExperimentResult(
        title=f"Section VI — adversarial-training ablation ({config.platform})",
        headers=("training data", "FPR", "FNR", "ACC", "F1", "EDR"))
    for name, thresholds_by_pid in variants.items():
        alerts, eval_traces = [], []
        for pid in config.patients:
            monitor = cawt_monitor(thresholds_by_pid[pid])
            test_p = [t for t in test if t.patient_id == pid]
            alerts.extend(replay_many(monitor, test_p))
            eval_traces.extend(test_p)
        cm = traces_confusion(eval_traces, alerts, delta=config.tolerance)
        rs = reaction_stats(eval_traces, alerts)
        result.rows.append((name,) + cm.as_row()
                           + (rs.early_detection_rate,))
    result.notes.append(
        "paper: adversarial training improves EDR by 11.3% and overall F1 "
        "by 8.5% over thresholds learned from fault-free data")
    return result


def run_multiclass_ablation(config: ExperimentConfig) -> ExperimentResult:
    """Binary vs multi-class heads for the ML monitors (Section VI-1)."""
    data = platform_data(config)
    _, test = train_test_split(data)
    result = ExperimentResult(
        title=f"Section VI-1 — binary vs multi-class ML monitors "
              f"({config.platform})",
        headers=("monitor", "head", "FPR", "FNR", "ACC", "F1"))
    for multiclass in (False, True):
        head = "multi-class" if multiclass else "binary"
        for name, alerts in ml_test_alerts(data, multiclass).items():
            cm = traces_confusion(test, alerts, delta=config.tolerance)
            result.rows.append((name, head) + cm.as_row())
    result.notes.append(
        "paper: multi-class retraining costs the ML baselines >= 14.3% FNR "
        "and 0.8-2.3% accuracy; CAWT is unaffected (hazard types come from "
        "the SCS)")
    return result


def run_fault_free_generalisation(config: ExperimentConfig) -> ExperimentResult:
    """False-alarm behaviour on fault-free operation (Section VI-2).

    Fault-free runs in this reproduction contain no hazards, so the paper's
    F1-drop comparison degenerates; we report the specificity side — the
    fraction of fault-free cycles each monitor wrongly flags — which is the
    operative failure mode ("overfitting to the faulty training
    distribution", see DESIGN.md).
    """
    data = platform_data(config)
    train, _ = train_test_split(data)
    result = ExperimentResult(
        title=f"Section VI-2 — behaviour on fault-free data "
              f"({config.platform})",
        headers=("monitor", "alert_fraction", "traces_with_alerts"))

    monitors = dict(ml_monitors(data))
    thresholds = {}
    for pid in config.patients:
        train_p = [t for t in train if t.patient_id == pid]
        thresholds[pid] = learn_thresholds(
            train_p + list(data.fault_free_by_patient[pid]),
            window=config.mining_window).thresholds

    for name, monitor in monitors.items():
        alerts = replay_many(monitor, data.fault_free)
        total = sum(a.sum() for a in alerts)
        n_samples = sum(len(a) for a in alerts)
        noisy = sum(1 for a in alerts if a.any())
        result.rows.append((name, total / n_samples, noisy))

    alerts, total, n_samples, noisy = [], 0, 0, 0
    for trace in data.fault_free:
        monitor = cawt_monitor(thresholds[trace.patient_id])
        seq = replay_many(monitor, [trace])[0]
        total += seq.sum()
        n_samples += len(seq)
        noisy += int(seq.any())
    result.rows.append(("CAWT", total / n_samples, noisy))
    result.notes.append(
        "paper: fully-supervised ML monitors lose >= 48.9% F1 when moved to "
        "fault-free data; the weakly-supervised CAWT loses 3.9%")
    return result
