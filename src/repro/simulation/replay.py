"""Offline monitor replay over recorded traces.

Monitors are passive observers: unless mitigation is enabled, they do not
change the closed-loop dynamics.  A fault-injection campaign therefore only
needs to be *simulated once*; every candidate monitor can then be evaluated
by replaying the recorded context stream through it.  This is what makes the
paper's many-monitor comparisons (Tables V, VI, Fig. 9) tractable.

Replay is lock-step: stored or streamed traces are stacked into
``(n_steps, B)`` context batches
(:class:`~repro.simulation.features.ContextBatch`) of at most
:data:`~repro.parallel.LOCKSTEP_WIDTH` traces, and every monitor is
evaluated column-wise through
:meth:`~repro.core.monitor.SafetyMonitor.observe_batch`.
:func:`replay_campaign` cuts the trace stream into chunks of
:data:`~repro.parallel.LOCKSTEP_WIDTH` traces with
:func:`~repro.parallel.map_chunks`, the same chunks in-process and on a
forked pool (``workers=``).

The contract is **width invariance**: for any worker count and
:data:`~repro.parallel.LOCKSTEP_WIDTH`, a trace's alert stream is
element-wise the same, and a golden fixture
(``tests/simulation/data/golden_replay.json``) pins the deterministic
kinds' verdicts themselves.  Two rules deliver it:

- the context values come from the *one* context builder,
  :func:`~repro.simulation.features.context_matrix` (a trace's
  :class:`~repro.core.context.ContextVector` stream,
  :func:`iter_contexts`, is its ``B=1`` column view);
- ``observe_batch`` implementations use comparisons and size-invariant
  ufuncs only, while whole-matrix BLAS calls, whose rounding depends on
  batch shape, are deliberately avoided (the MLP classifies every cycle,
  and the LSTM every sliding window, in stacked single-row forwards that
  make the same BLAS gemv call per row as the model's one-row
  ``predict``).

Within a chunk, batches are greedy groups of consecutive equal-length
traces, so a heterogeneous stream (campaign plus fault-free runs of a
different ``n_steps``) batches as far as its layout allows; batch
boundaries cannot affect the verdicts (columns are independent, every
trace starts from a fresh state).  Memory stays bounded by the chunk:
one chunk of traces and its :class:`ContextBatch` are resident at a
time, so lazy :class:`~repro.simulation.store.TraceDataset` streams keep
their bounded-memory guarantee, and with ``workers > 1`` each worker
loads only its own chunks' shards.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from ..core.monitor import SafetyMonitor
from ..parallel import iter_equal_length_groups, lockstep_width, map_chunks
from .features import ContextBatch
from .trace import SimulationTrace

__all__ = ["replay_many", "replay_campaign", "replay_chunk_batched",
           "iter_contexts"]


def iter_contexts(trace: SimulationTrace):
    """Yield the per-cycle :class:`ContextVector` stream of a trace.

    Reconstructs exactly what the closed loop fed the monitor: the ``B=1``
    column of the shared
    :class:`~repro.simulation.features.ContextBatch`, so replay, a
    cycle-by-cycle :meth:`~repro.core.monitor.SafetyMonitor.observe` and
    ML dataset construction see the same values.
    """
    yield from ContextBatch.from_traces([trace]).iter_column(0)


def _observe_checked(monitor: SafetyMonitor, name: str,
                     batch: ContextBatch) -> Tuple[np.ndarray, np.ndarray]:
    """Run ``observe_batch`` and validate the verdict-matrix shapes, so a
    miswritten override fails loudly instead of silently misaligning the
    per-trace alert streams."""
    alerts, hazards = monitor.observe_batch(batch)
    if np.shape(alerts) != batch.shape or np.shape(hazards) != batch.shape:
        raise ValueError(
            f"monitor {name!r} returned verdict matrices of shape "
            f"{np.shape(alerts)}/{np.shape(hazards)} for a context batch "
            f"of shape {batch.shape}")
    return alerts, hazards


def _iter_context_batches(traces: Iterable[SimulationTrace]):
    for group in iter_equal_length_groups(traces):
        yield ContextBatch.from_traces(group)


def replay_chunk_batched(monitors: Mapping[str, SafetyMonitor],
                         traces: Iterable[SimulationTrace]
                         ) -> Dict[str, List[np.ndarray]]:
    """Replay *monitors* over a trace stream in lock-step batches.

    The chunk runner behind :func:`replay_campaign`, which hands it one
    chunk at a time.  Returns ``name -> per-trace boolean alert arrays`` aligned with the
    input stream.
    """
    named = dict(monitors)
    out: Dict[str, List[np.ndarray]] = {name: [] for name in named}
    for batch in _iter_context_batches(traces):
        for name, monitor in named.items():
            alerts, _ = _observe_checked(monitor, name, batch)
            out[name].extend(np.ascontiguousarray(alerts[:, b])
                             for b in range(alerts.shape[1]))
    return out


def replay_campaign(monitors: Mapping[str, SafetyMonitor],
                    traces: Iterable[SimulationTrace],
                    workers: Optional[int] = None
                    ) -> Dict[str, List[np.ndarray]]:
    """Replay a named set of monitors over recorded traces.

    Parameters
    ----------
    monitors:
        ``name -> monitor`` mapping; every monitor sees every trace, each
        from a fresh state.  The context batch of each trace group is
        built once and shared by all monitors.
    traces:
        Any iterable of traces.  In-process, plain iterables (generators
        included) are streamed one chunk at a time; with ``workers > 1``
        the chunks are built by index — ideally from a lazy
        :class:`~repro.simulation.store.TraceDataset`, so each worker
        loads only its own shards (non-sequence iterables are
        materialised first).
    workers:
        Process count (None: ``REPRO_WORKERS`` env, or 1).  Monitors and
        the trace sequence are fork-inherited, never pickled, so trained
        models and lazy datasets work unchanged; only the boolean alert
        arrays travel back.  Output is element-wise identical to
        ``workers=1`` for every worker count.

    Returns ``name -> list of per-trace boolean alert arrays``, aligned
    with *traces*.
    """
    named = dict(monitors)
    if not named:
        return {}

    def replay_chunk(chunk):
        return replay_chunk_batched(named, chunk)

    out: Dict[str, List[np.ndarray]] = {name: [] for name in named}
    for chunk_result in map_chunks(replay_chunk, traces, lockstep_width(),
                                   workers):
        for name, alerts in chunk_result.items():
            out[name].extend(alerts)
    return out


def replay_many(monitor: SafetyMonitor,
                traces: Iterable[SimulationTrace],
                workers: Optional[int] = None) -> List[np.ndarray]:
    """Alert sequences of *monitor* over a list of traces (``workers`` as
    for :func:`replay_campaign`, a wall-clock knob with element-wise
    identical output)."""
    return replay_campaign({"monitor": monitor}, traces,
                           workers=workers)["monitor"]
