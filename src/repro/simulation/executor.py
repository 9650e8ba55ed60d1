"""Campaign execution engine.

The paper's evaluation grid is 882 fault injections per patient across a
20-patient, two-platform cohort (Section V-B) — embarrassingly parallel
work.  This module runs that grid in-process or fanned out over a worker
pool while keeping the output *byte-identical* at every worker count:

- :func:`plan_campaign` / :func:`plan_fault_free` normalise a campaign into
  an immutable :class:`CampaignPlan` — a flat, patient-major tuple of
  :class:`SimRun` cells;
- :class:`CampaignExecutor` cuts the plan into lock-step batches of
  :data:`~repro.parallel.LOCKSTEP_WIDTH` runs and simulates each through
  :func:`~repro.simulation.vector.run_batch`, in-process or on a forked
  pool (:func:`~repro.parallel.map_chunks`, so unpicklable monitor
  factories are inherited, not serialised), in stable plan order;
- :class:`ProfileCache` and :class:`BaselineCache` hold the expensive
  shared artifacts (titrated controller profiles, fault-free reference
  traces) in explicit, lock-guarded objects that forked workers warm
  independently;
- :class:`TraceSink` streams traces out of memory so million-trace
  campaigns never hold every :class:`SimulationTrace` at once (the
  campaign store's :class:`~repro.simulation.store.NpzDirectorySink`
  writes them to disk).

The batches are the same at every worker count, so worker count never
changes the simulated dynamics — only the wall-clock time.
"""

from __future__ import annotations

import abc
import math
import threading
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.mitigation import Mitigator
from ..core.monitor import SafetyMonitor
from ..fi import FaultSpec, InjectionScenario
from ..parallel import lockstep_width, map_chunks, resolve_workers
from ..patients import Meal
from .trace import SimulationTrace

__all__ = [
    "SimRun", "CampaignPlan", "plan_campaign", "plan_fault_free",
    "ProfileCache", "BaselineCache", "PROFILE_CACHE", "BASELINE_CACHE",
    "TraceSink", "CampaignExecutor",
]

MonitorFactory = Callable[[str], SafetyMonitor]


# ----------------------------------------------------------------------
# plans: the normalised (patient x scenario) grid
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SimRun:
    """One cell of the campaign grid: a patient plus one simulation spec.

    ``meals`` carries scheduled carbohydrate disturbances (empty for the
    paper's meal-free grid); sampled scenario populations — the rare-event
    search in :mod:`repro.search` — plan meal scenarios through the same
    executor path as the paper's grid.  ``init_glucose`` must be finite
    and positive (mg/dL): the patient models have no state below 0.
    """

    patient_id: str
    init_glucose: float
    label: str
    fault: Optional[FaultSpec] = None
    meals: Tuple[Meal, ...] = ()

    def __post_init__(self):
        if not (math.isfinite(self.init_glucose) and self.init_glucose > 0):
            raise ValueError(f"init_glucose must be a finite positive "
                             f"mg/dL value, got {self.init_glucose}")


@dataclass(frozen=True)
class CampaignPlan:
    """An immutable, patient-major execution plan.

    The run order *is* the output order: executors must return (or stream)
    traces exactly in ``plan.runs`` order, whatever the worker count.
    """

    platform: str
    runs: Tuple[SimRun, ...]
    n_steps: int = 150
    target: float = 120.0
    dt: float = 5.0

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")

    def __len__(self) -> int:
        return len(self.runs)


def plan_campaign(platform: str, patient_ids: Sequence[str],
                  scenarios: Iterable[InjectionScenario],
                  n_steps: int = 150, dt: float = 5.0) -> CampaignPlan:
    """Plan a fault-injection campaign: every scenario against every patient."""
    scenarios = tuple(scenarios)
    runs = tuple(SimRun(patient_id=pid, init_glucose=scn.init_glucose,
                        label=scn.label, fault=scn.fault)
                 for pid in patient_ids for scn in scenarios)
    return CampaignPlan(platform=platform, runs=runs, n_steps=n_steps, dt=dt)


def plan_fault_free(platform: str, patient_ids: Sequence[str],
                    init_glucose_values: Sequence[float],
                    n_steps: int = 150, dt: float = 5.0) -> CampaignPlan:
    """Plan the fault-free reference runs over the initial-glucose grid."""
    runs = tuple(SimRun(patient_id=pid, init_glucose=float(bg),
                        label=f"fault-free/bg{bg:g}", fault=None)
                 for pid in patient_ids for bg in init_glucose_values)
    return CampaignPlan(platform=platform, runs=runs, n_steps=n_steps, dt=dt)


# ----------------------------------------------------------------------
# caches
# ----------------------------------------------------------------------

class ProfileCache:
    """Lock-guarded cache of titrated controller profiles.

    Replaces the former ad-hoc module-global ``_PROFILE_CACHE`` dict in
    :mod:`repro.simulation.batch`.  Each process owns its instance: forked
    workers inherit whatever the parent warmed before the fork and fill in
    the rest independently, so there is no cross-process coordination to
    get wrong.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._profiles: Dict[tuple, Dict[str, float]] = {}

    def get_or_compute(self, key: tuple,
                       compute: Callable[[], Dict[str, float]]) -> Dict[str, float]:
        """Cached profile for *key*, computing (under the lock) on a miss."""
        with self._lock:
            if key not in self._profiles:
                self._profiles[key] = compute()
            return dict(self._profiles[key])

    def clear(self) -> None:
        with self._lock:
            self._profiles.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._profiles)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._profiles


class BaselineCache:
    """Cache of fault-free baseline traces.

    Keyed by ``(platform, patient_id, init_glucose, n_steps)`` — the full
    identity of a monitor-less, mitigation-less fault-free run.  Campaign
    code consults it before simulating so the same baselines are never
    recomputed across experiments; forked workers inherit the parent's warm
    entries and can warm their own copies independently.

    Only unmonitored runs are cacheable: a monitor changes the recorded
    alert channels, so those traces are never served from here.
    """

    @staticmethod
    def key(platform: str, patient_id: str, init_glucose: float,
            n_steps: int) -> tuple:
        return (platform, patient_id, float(init_glucose), int(n_steps))

    def __init__(self):
        self._lock = threading.Lock()
        self._traces: Dict[tuple, SimulationTrace] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple) -> Optional[SimulationTrace]:
        with self._lock:
            trace = self._traces.get(key)
            if trace is None:
                self.misses += 1
            else:
                self.hits += 1
            return trace

    def put(self, key: tuple, trace: SimulationTrace) -> None:
        with self._lock:
            self._traces[key] = trace

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()
            self.hits = self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._traces


#: process-wide default instances (one per process; fork inherits them warm)
PROFILE_CACHE = ProfileCache()
BASELINE_CACHE = BaselineCache()


# ----------------------------------------------------------------------
# trace sinks: stream results instead of accumulating them
# ----------------------------------------------------------------------

class TraceSink(abc.ABC):
    """Consumer of a stable-ordered trace stream.

    :class:`CampaignExecutor` calls :meth:`write` once per completed run,
    in exact plan order.  The *caller* owns the sink's lifecycle — use it
    as a context manager (or call :meth:`close`) so one sink can absorb
    several campaigns before flushing.  Sinks let arbitrarily large
    campaigns run in bounded memory: the executor drops each batch after
    handing it over.
    """

    @abc.abstractmethod
    def write(self, trace: SimulationTrace) -> None:
        """Consume one trace."""

    def close(self) -> None:
        """Flush/finalise (default: nothing)."""

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# the executor
# ----------------------------------------------------------------------

class CampaignExecutor:
    """Executes a :class:`CampaignPlan`, preserving plan order exactly.

    The plan runs as consecutive lock-step batches of
    :data:`~repro.parallel.LOCKSTEP_WIDTH` runs, one
    :func:`~repro.simulation.vector.run_batch` call per batch — monitored
    and mitigated runs included, with per-tick column-wise monitor
    evaluation and row-wise command correction (see ``docs/mitigation.md``
    for the contract).  *workers* (None: ``REPRO_WORKERS`` env, or 1) only
    decides whether the batches run in-process or on a forked pool
    (:func:`~repro.parallel.map_chunks`); the batches, and so the traces,
    are the same for every worker count.
    """

    def __init__(self, workers: Optional[int] = None):
        self.workers = resolve_workers(workers)

    def run(self, plan: CampaignPlan,
            monitor_factory: Optional[MonitorFactory] = None,
            mitigator: Optional[Mitigator] = None,
            sink: Optional[TraceSink] = None
            ) -> Optional[List[SimulationTrace]]:
        """Execute the plan.

        Without a sink, returns the full trace list in plan order.  With a
        sink, each trace is streamed to ``sink.write`` as its batch
        completes (still in plan order), memory stays bounded by the
        batches in flight, and ``None`` is returned.
        """
        from . import vector  # deferred: vector imports us too

        def run_chunk(runs: Sequence[SimRun]) -> List[SimulationTrace]:
            return vector.run_batch(plan.platform, runs, plan.n_steps,
                                    dt=plan.dt, target=plan.target,
                                    monitor_factory=monitor_factory,
                                    mitigator=mitigator)

        batches = map_chunks(run_chunk, plan.runs, lockstep_width(),
                             self.workers)
        if sink is None:
            return [trace for batch in batches for trace in batch]
        for batch in batches:
            for trace in batch:
                sink.write(trace)
        return None
