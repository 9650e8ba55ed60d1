"""ML substrate for the baseline monitors: CART tree, numpy MLP and LSTM,
the Eq. 7/8 dataset builders and the parallel training-job layer."""

from .datasets import (
    FEATURE_NAMES,
    build_point_dataset,
    build_window_dataset,
    point_labels,
    trace_features,
)
from .monitors import DTMonitor, LSTMMonitor, MLPMonitor
from .nn import Adam, LSTMClassifier, LSTMLayer, MLPClassifier, Standardizer
from .training import (
    TrainedMonitor,
    TrainingJob,
    job_dataset,
    monitor_state,
    run_training_jobs,
    select_job_traces,
    train_job,
)
from .tree import DecisionTreeClassifier

__all__ = [
    "TrainedMonitor",
    "TrainingJob",
    "job_dataset",
    "monitor_state",
    "run_training_jobs",
    "select_job_traces",
    "train_job",
    "FEATURE_NAMES",
    "build_point_dataset",
    "build_window_dataset",
    "point_labels",
    "trace_features",
    "DTMonitor",
    "LSTMMonitor",
    "MLPMonitor",
    "Adam",
    "LSTMClassifier",
    "LSTMLayer",
    "MLPClassifier",
    "Standardizer",
    "DecisionTreeClassifier",
]
