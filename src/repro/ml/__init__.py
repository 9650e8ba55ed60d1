"""ML substrate for the baseline monitors: CART tree, numpy MLP and LSTM,
memory-mapped dataset materialisation and the parallel training-job layer."""

from .datasets import (
    FEATURE_NAMES,
    build_point_dataset,
    build_window_dataset,
    point_labels,
    trace_features,
)
from .memmap import MemmapDatasetError, NpyStreamWriter, open_memmap_array
from .monitors import (
    DTMonitor,
    LSTMMonitor,
    MLPMonitor,
    train_dt_monitor,
    train_lstm_monitor,
    train_mlp_monitor,
)
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
    "MemmapDatasetError",
    "NpyStreamWriter",
    "open_memmap_array",
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
    "train_dt_monitor",
    "train_lstm_monitor",
    "train_mlp_monitor",
    "Adam",
    "LSTMClassifier",
    "LSTMLayer",
    "MLPClassifier",
    "Standardizer",
    "DecisionTreeClassifier",
]
