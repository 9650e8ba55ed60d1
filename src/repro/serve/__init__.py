"""Online monitor serving: registry, tick-batched evaluation over per-user
state columns, alert dedup/escalation, a deterministic load generator,
and crash safety (write-ahead journal + snapshots + bit-exact recovery).

The production half of the reproduction: trained monitors load once from a
:class:`MonitorRegistry` and evaluate every connected user per tick as one
``ContextBatch`` column batch, with raw alert streams element-wise
identical to offline :func:`~repro.simulation.replay.replay_campaign`
(see :mod:`repro.serve.service` and ``docs/monitor_service.md``).  Per
user the service holds a slot, its BG memory, its last-tick stamp, its
alert streams and the monitors' state columns; no context history.
Malformed rows are quarantined (:class:`RejectedTick`) instead of raising
mid-tick, and with a ``persist_dir`` the service survives hard kills via
:mod:`repro.serve.persist` — faults injected by :mod:`repro.serve.chaos`.
"""

from .alerts import AlertEvent, AlertManager, DEFAULT_DEDUP_WINDOW_MINUTES
from .loadgen import LoadGenerator, LoadReport, run_load
from .persist import (JournalCorruptError, PersistenceError, RecoveryReport,
                      SnapshotError, TickJournal)
from .registry import MonitorRegistry, RegistryError
from .service import (REJECT_REASONS, MonitorService, RejectedTick,
                      TickBatch, TickResult, replay_log)

__all__ = [
    "AlertEvent",
    "AlertManager",
    "DEFAULT_DEDUP_WINDOW_MINUTES",
    "JournalCorruptError",
    "LoadGenerator",
    "LoadReport",
    "MonitorRegistry",
    "MonitorService",
    "PersistenceError",
    "RecoveryReport",
    "RegistryError",
    "REJECT_REASONS",
    "RejectedTick",
    "SnapshotError",
    "TickBatch",
    "TickJournal",
    "TickResult",
    "replay_log",
    "run_load",
]
