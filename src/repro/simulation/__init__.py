"""Closed-loop APS simulation: the lock-step engine, traces, the campaign
executor (in-process or on a forked pool, with the same lock-step batches
at every worker count), on-disk campaign datasets and offline (parallel)
monitor replay."""

from .batch import (
    controller_profile,
    kfold_split,
    make_controller,
    run_campaign,
    run_fault_free,
)
from .executor import (
    BASELINE_CACHE,
    PROFILE_CACHE,
    BaselineCache,
    CampaignExecutor,
    CampaignPlan,
    ProfileCache,
    SimRun,
    TraceSink,
    plan_campaign,
    plan_fault_free,
)
from .features import ContextBatch, FEATURE_NAMES, context_matrix
from .replay import (iter_contexts, replay_campaign, replay_chunk_batched,
                     replay_many)
from .vector import run_batch, titrate_isf_batch, warm_profiles
from .store import (
    SCHEMA_VERSION,
    CampaignStoreError,
    CampaignStoreWriter,
    DatasetStats,
    NpzDirectorySink,
    TraceDataset,
    TraceDatasetView,
    TraceTick,
    campaign_fingerprint,
    iter_trace_ticks,
    open_dataset,
    plan_fingerprint,
)
from .trace import (
    TRACE_ARRAY_FIELDS,
    TRACE_COLUMN_DTYPES,
    SimulationTrace,
    trace_from_arrays,
    trace_to_arrays,
)

__all__ = [
    "controller_profile",
    "kfold_split",
    "make_controller",
    "run_campaign",
    "run_fault_free",
    "BASELINE_CACHE",
    "PROFILE_CACHE",
    "BaselineCache",
    "CampaignExecutor",
    "CampaignPlan",
    "ProfileCache",
    "SimRun",
    "TraceSink",
    "plan_campaign",
    "plan_fault_free",
    "run_batch",
    "titrate_isf_batch",
    "warm_profiles",
    "replay_chunk_batched",
    "ContextBatch",
    "FEATURE_NAMES",
    "context_matrix",
    "iter_contexts",
    "replay_campaign",
    "replay_many",
    "SCHEMA_VERSION",
    "CampaignStoreError",
    "CampaignStoreWriter",
    "DatasetStats",
    "NpzDirectorySink",
    "TraceDataset",
    "TraceDatasetView",
    "TraceTick",
    "campaign_fingerprint",
    "iter_trace_ticks",
    "open_dataset",
    "plan_fingerprint",
    "TRACE_ARRAY_FIELDS",
    "TRACE_COLUMN_DTYPES",
    "SimulationTrace",
    "trace_from_arrays",
    "trace_to_arrays",
]
