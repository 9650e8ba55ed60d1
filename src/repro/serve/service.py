"""The online monitor service: per-tick batched evaluation of live users.

One :class:`MonitorService` holds the whole fleet: users connect, stream
(CGM, IOB, command) ticks at the control cadence, and every tick is
evaluated against every registry monitor **as one column batch** — the
``(1, B)`` :class:`~repro.simulation.features.ContextBatch` shape the
lock-step simulation engine already drives ``observe_batch`` with, so one
process scales to 10^5+ users per tick instead of B Python loops.

Monitor lifecycle mirrors :class:`repro.simulation.vector._MonitorBatch`:
every registry monitor lives once, shared read-only, and sees the whole
ticking fleet in one ``observe_batch`` call per tick.  What belongs to a
user — a Guideline excursion timer, the MPC insulin chain, an LSTM's
k-cycle window — is a column of the monitor's per-slot state arrays
(:meth:`~repro.core.monitor.SafetyMonitor.init_state`), installed fresh
at connect time, gathered by slot for the tick's users and scattered back
after the call.

**Parity contract.**  The service computes each user's BG rate from
consecutive ticks — ``(cgm - previous_cgm) / dt``, zero on the user's
first tick — which is float-for-float the backward difference
:func:`~repro.simulation.features.context_matrix` computes offline.
Everything downstream is the shared ``ContextBatch`` arithmetic, so
feeding a recorded campaign through :func:`replay_log` (one trace = one
user, via :func:`~repro.simulation.store.iter_trace_ticks`) produces raw
alert streams **element-wise identical** to offline
:func:`~repro.simulation.replay.replay_campaign` — the assertion CI's
serving smoke makes.  Dedup/escalation
(:mod:`repro.serve.alerts`) is strictly downstream of the raw streams and
never part of the parity surface.

**Degraded-mode ingestion.**  A deployment's inputs misbehave: sensors
emit NaN or negative glucose, gateways duplicate rows or re-deliver old
ticks, frontends send users that never connected.  ``process`` never
raises mid-tick on any of these — malformed rows are quarantined into a
structured :class:`RejectedTick` side channel (``TickResult.rejected``
plus a bounded :attr:`MonitorService.dead_letters` log and per-reason
counters) while every *healthy* row is evaluated exactly as if the bad
rows had never been sent, and :attr:`MonitorService.health` reports
``"DEGRADED"`` while rejects are recent.  Stale-timestamp quarantine
doubles as the idempotency guard that makes at-least-once tick delivery
(and journal redelivery after crash recovery) safe.

**Per-user state.**  A user is a slot: one column of the BG memory (the
previous reading and whether there is one), the last applied tick's time
stamp, the alert streams and every monitor's state arrays.  Nothing else
is kept per user; the monitors decide from the tick's context and their
own state, so no context history is retained.

**Crash safety.**  With ``persist_dir=`` set, every state-changing input
(tick, explicit connect/disconnect) is appended to a CRC-framed, fsync'd
write-ahead journal *before* it mutates in-memory state, and
:meth:`MonitorService.snapshot` atomically checkpoints the full service
state (slot map, BG memory, alert streams, monitor state arrays,
counters) and rotates the journal.  :meth:`MonitorService.recover`
restores snapshot + journal replay to a state whose subsequent alert
stream is element-wise identical to a run that never crashed —
mechanics and failure taxonomy in :mod:`repro.serve.persist`.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field
from typing import (Deque, Dict, Hashable, List, Mapping, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from ..core.monitor import MonitorState, SafetyMonitor
from ..simulation.features import ContextBatch
from ..simulation.store import iter_trace_ticks
from .alerts import AlertEvent, AlertManager, DEFAULT_DEDUP_WINDOW_MINUTES
from .persist import (CONFIG_NAME, REGISTRY_DIRNAME, JournalCorruptError,
                      PersistenceError,
                      RecoveryReport, TickJournal, list_segments,
                      list_snapshots, read_config, read_journal,
                      read_snapshot, segment_path, snapshot_path,
                      write_config, write_snapshot)
from .registry import MonitorRegistry, RegistryError

__all__ = ["TickBatch", "TickResult", "RejectedTick", "MonitorService",
           "replay_log", "REJECT_REASONS"]

#: every reason a row can be quarantined with (``RejectedTick.reason``)
REJECT_REASONS = ("bad-time", "bad-glucose", "bad-channel",
                  "duplicate-user", "unknown-user", "stale-timestamp")


@dataclass(frozen=True)
class TickBatch:
    """One ingest cycle: the raw channel vectors of every ticking user.

    Exactly the wire format a streaming frontend would deliver — no
    derived quantities (the service computes the BG rate itself, which is
    what keeps it on the offline parity contract).  All arrays are
    ``(B,)`` with ``B == len(user_ids)``.
    """

    t: float
    user_ids: Tuple[Hashable, ...]
    cgm: np.ndarray
    iob: np.ndarray
    iob_rate: np.ndarray
    rate: np.ndarray
    bolus: np.ndarray
    action: np.ndarray

    def __post_init__(self):
        n = len(self.user_ids)
        for name in ("cgm", "iob", "iob_rate", "rate", "bolus", "action"):
            value = getattr(self, name)
            if np.shape(value) != (n,):
                raise ValueError(
                    f"{name} must have shape ({n},) to match user_ids, "
                    f"got {np.shape(value)}")


@dataclass(frozen=True)
class RejectedTick:
    """One quarantined ingest row: who, when, and why.

    ``reason`` is one of :data:`REJECT_REASONS`; ``value`` carries the
    offending number when the reason has one (the bad glucose reading,
    the stale timestamp).  Rejected rows never reach the monitors, the
    BG memory, or the alert streams — the row simply didn't happen,
    exactly as if the user had skipped the tick.
    """

    t: float
    user_id: Hashable
    reason: str
    value: Optional[float] = None


@dataclass(frozen=True)
class TickResult:
    """Everything one :meth:`MonitorService.process` call produced.

    ``alerts[name]`` / ``hazards[name]`` are the raw ``(B,)`` per-monitor
    verdict vectors in ``user_ids`` order (the parity surface; rejected
    rows read False/0); ``events`` are the post-dedup notifications that
    actually fired; ``rejected`` the rows quarantined by degraded-mode
    validation.
    """

    t: float
    user_ids: Tuple[Hashable, ...]
    alerts: Dict[str, np.ndarray]
    hazards: Dict[str, np.ndarray]
    events: List[AlertEvent] = field(default_factory=list)
    rejected: List[RejectedTick] = field(default_factory=list)


class MonitorService:
    """Event-loop monitor evaluation over a fleet of streaming users.

    Parameters
    ----------
    monitors:
        A :class:`~repro.serve.registry.MonitorRegistry` or a plain
        ``name -> monitor`` mapping (wrapped into one).  Loaded once,
        shared read-only across all users.
    dt:
        Control period in minutes; every connected user ticks at this
        cadence (the paper's loops run at 5).
    dedup_window, escalate_after:
        Alert notification policy, see :class:`~repro.serve.alerts.
        AlertManager`.
    auto_connect:
        When True (default) unknown users connect on first sight; when
        False their rows are quarantined as ``unknown-user`` instead.
    dead_letter_capacity:
        Most recent :class:`RejectedTick` entries retained in
        :attr:`dead_letters` (older entries roll off; the per-reason
        counters never reset).
    health_window:
        Processed ticks without a reject required before
        :attr:`health` returns to ``"OK"``.
    persist_dir:
        When set, enables crash safety: the directory receives the
        service config, a write-ahead tick journal and (on
        :meth:`snapshot`) atomic state snapshots.  Must be empty or
        fresh — a directory already holding persisted state is refused
        with :class:`~repro.serve.persist.PersistenceError` (use
        :meth:`recover`).
    fsync:
        Whether journal appends fdatasync before returning (leave True
        in production; False trades durability of the last few ticks
        for speed, e.g. in tests).
    snapshot_every:
        Auto-snapshot cadence in processed ticks (None disables; call
        :meth:`snapshot` manually).
    """

    def __init__(self, monitors: Union[MonitorRegistry,
                                       Mapping[str, SafetyMonitor]],
                 dt: float = 5.0,
                 dedup_window: float = DEFAULT_DEDUP_WINDOW_MINUTES,
                 escalate_after: Optional[int] = 24,
                 auto_connect: bool = True, dead_letter_capacity: int = 256,
                 health_window: int = 12,
                 persist_dir: Optional[str] = None, fsync: bool = True,
                 snapshot_every: Optional[int] = None):
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if dead_letter_capacity < 1:
            raise ValueError(f"dead_letter_capacity must be >= 1, got "
                             f"{dead_letter_capacity}")
        if health_window < 1:
            raise ValueError(f"health_window must be >= 1, got "
                             f"{health_window}")
        if snapshot_every is not None and snapshot_every < 1:
            raise ValueError(f"snapshot_every must be >= 1 or None, got "
                             f"{snapshot_every}")
        if not isinstance(monitors, MonitorRegistry):
            monitors = MonitorRegistry(monitors)
        self.registry = monitors
        self.dt = float(dt)
        self.auto_connect = bool(auto_connect)
        self.health_window = int(health_window)
        self.alert_manager = AlertManager(window=dedup_window,
                                          escalate_after=escalate_after)
        self._slots: Dict[Hashable, int] = {}
        self._free: List[int] = []
        self._last_cgm = np.zeros(0)
        self._seen = np.zeros(0, dtype=bool)
        #: wall-clock of each slot's last applied tick (idempotency guard)
        self._last_t = np.full(0, -np.inf)
        #: per-monitor state arrays, one column per slot
        self._state: Dict[str, MonitorState] = {
            name: monitor.init_state(0) for name, monitor in monitors.items()}
        self._ticks_processed = 0
        # degraded-mode bookkeeping
        self.dead_letters: Deque[RejectedTick] = deque(
            maxlen=int(dead_letter_capacity))
        self.rejected_total = 0
        self.rejected_by_reason: Dict[str, int] = {}
        self._recent_rejects: Deque[bool] = deque(maxlen=self.health_window)
        # crash-safety plumbing (inert without persist_dir)
        self.persist_dir: Optional[str] = None
        self.fsync = bool(fsync)
        self.snapshot_every = snapshot_every
        self.snapshots_written = 0
        self.recovery_report: Optional[RecoveryReport] = None
        self._journal: Optional[TickJournal] = None
        self._journal_uids: Optional[Tuple[Hashable, ...]] = None
        self._segment_seq = 0
        self._replaying = False
        # fleets usually tick with a stable user set; memoise the
        # user_ids -> slots resolution on tuple identity
        self._cached_ids: Optional[Tuple[Hashable, ...]] = None
        self._cached_slots: Optional[np.ndarray] = None
        if persist_dir is not None:
            self._init_persistence(persist_dir)

    # ------------------------------------------------------------------
    # fleet membership
    # ------------------------------------------------------------------
    @property
    def n_users(self) -> int:
        return len(self._slots)

    @property
    def ticks_processed(self) -> int:
        return self._ticks_processed

    @property
    def health(self) -> str:
        """``"DEGRADED"`` while any of the last ``health_window``
        processed ticks quarantined rows, ``"OK"`` otherwise."""
        return "DEGRADED" if any(self._recent_rejects) else "OK"

    @property
    def clock_skew_events(self) -> int:
        """Raw alerts whose wall clock ran backwards on their stream
        (clamped, never silently absorbed — see
        :class:`~repro.serve.alerts.AlertManager`)."""
        return self.alert_manager.clock_skew_events

    def connect(self, user_id: Hashable) -> None:
        """Register a user (idempotent); allocates its slot and fresh
        monitor state columns."""
        if user_id in self._slots:
            return
        self._journal_record("connect", user_id)
        self._connect(user_id)

    def _connect(self, user_id: Hashable) -> None:
        if user_id in self._slots:
            return
        if self._free:
            slot = self._free.pop()
        else:
            slot = len(self._slots)
            self._grow_state(slot + 1)
        for name, monitor in self.registry.items():
            for key, fresh in monitor.init_state(1).items():
                self._state[name][key][..., slot] = fresh[..., 0]
        self._slots[user_id] = slot
        self._last_cgm[slot] = 0.0
        self._seen[slot] = False
        self._last_t[slot] = -np.inf
        self._cached_ids = None

    def disconnect(self, user_id: Hashable) -> None:
        """Drop a user: frees and scrubs its slot and alert streams — a
        later user recycling the slot can never inherit a BG memory or
        dedup timer (monitor state is installed fresh at connect)."""
        if user_id not in self._slots:
            raise KeyError(f"unknown user {user_id!r}")
        self._journal_record("disconnect", user_id)
        self._disconnect(user_id)

    def _disconnect(self, user_id: Hashable) -> None:
        slot = self._slots.pop(user_id, None)
        if slot is None:
            raise KeyError(f"unknown user {user_id!r}")
        self._free.append(slot)
        # scrub at disconnect time (and again defensively at recycle in
        # _connect): the BG memory and last-tick stamp belong to the
        # departed user
        self._last_cgm[slot] = 0.0
        self._seen[slot] = False
        self._last_t[slot] = -np.inf
        self.alert_manager.drop_user(user_id)
        self._cached_ids = None

    def _grow_state(self, n: int) -> None:
        """Grow every per-slot array to hold at least *n* slots, doubling
        (at least 8), so connecting users is amortised O(1)."""
        current = len(self._seen)
        if n <= current:
            return
        n = max(n, 2 * current, 8)
        last_cgm = np.zeros(n)
        last_cgm[:current] = self._last_cgm
        seen = np.zeros(n, dtype=bool)
        seen[:current] = self._seen
        last_t = np.full(n, -np.inf)
        last_t[:current] = self._last_t
        for name, monitor in self.registry.items():
            fresh = monitor.init_state(n - current)
            self._state[name] = {
                key: np.concatenate([column, fresh[key]], axis=-1)
                for key, column in self._state[name].items()}
        self._last_cgm, self._seen, self._last_t = last_cgm, seen, last_t

    # ------------------------------------------------------------------
    # degraded-mode validation helpers
    # ------------------------------------------------------------------
    def _reject(self, rejected: List[RejectedTick], t: float,
                user_id: Hashable, reason: str,
                value: Optional[float]) -> None:
        entry = RejectedTick(t=float(t), user_id=user_id, reason=reason,
                             value=value)
        rejected.append(entry)
        self.dead_letters.append(entry)
        self.rejected_total += 1
        self.rejected_by_reason[reason] = (
            self.rejected_by_reason.get(reason, 0) + 1)

    def _resolve_or_reject(self, user_ids: Tuple[Hashable, ...], t: float,
                           rejected: List[RejectedTick],
                           ok: Optional[np.ndarray]
                           ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Slot-resolve every row, quarantining duplicate/unknown ids.

        Cache-miss path only (a cached tuple already proved unique and
        fully connected).  Returns the full ``(B,)`` slot vector (entries
        of rejected rows are placeholders, masked out by *ok*) and the
        possibly-updated keep mask.
        """
        n = len(user_ids)
        seen_ids: set = set()
        bad_rows: List[Tuple[int, str]] = []
        for j, uid in enumerate(user_ids):
            if uid in seen_ids:
                bad_rows.append((j, "duplicate-user"))
                continue
            seen_ids.add(uid)
            if uid not in self._slots:
                if self.auto_connect:
                    self._connect(uid)
                else:
                    bad_rows.append((j, "unknown-user"))
        if bad_rows:
            if ok is None:
                ok = np.ones(n, dtype=bool)
            for j, reason in bad_rows:
                if ok[j]:  # first rejection reason wins
                    self._reject(rejected, t, user_ids[j], reason, None)
                ok[j] = False
            slots = np.fromiter((self._slots.get(u, 0) for u in user_ids),
                                dtype=np.intp, count=n)
            return slots, ok  # degenerate batch: never cached
        slots = np.fromiter((self._slots[u] for u in user_ids),
                            dtype=np.intp, count=n)
        self._cached_ids = user_ids
        self._cached_slots = slots
        return slots, ok

    def _empty_result(self, tick: TickBatch,
                      rejected: List[RejectedTick]) -> TickResult:
        """Finish a tick none of whose rows survived validation."""
        n = len(tick.user_ids)
        alerts = {name: np.zeros(n, dtype=bool) for name in self.registry}
        hazards = {name: np.zeros(n, dtype=int) for name in self.registry}
        self._ticks_processed += 1
        self._recent_rejects.append(True)
        self._maybe_snapshot()
        self._journal_sync()
        return TickResult(t=tick.t, user_ids=tick.user_ids, alerts=alerts,
                          hazards=hazards, events=[], rejected=rejected)

    # ------------------------------------------------------------------
    # the tick hot path
    # ------------------------------------------------------------------
    def process(self, tick: TickBatch) -> TickResult:
        """Evaluate one ingest cycle for every ticking user.

        Unknown users auto-connect on first sight (``auto_connect``).
        Users absent from the tick simply don't advance (their next BG
        rate spans the gap).  Malformed rows **never raise mid-tick**:
        they are quarantined into ``TickResult.rejected`` with a reason
        from :data:`REJECT_REASONS` and every healthy row is processed
        exactly as if the bad rows had never been sent.  With a
        ``persist_dir``, the raw tick is journaled before any state
        changes (write-ahead) — validation is deterministic, so journal
        replay re-derives the same quarantine decisions.
        """
        self._journal_tick(tick)
        user_ids = tick.user_ids
        n = len(user_ids)
        rejected: List[RejectedTick] = []

        if not np.isfinite(tick.t):
            for uid in user_ids:
                self._reject(rejected, tick.t, uid, "bad-time",
                             float(tick.t))
            return self._empty_result(tick, rejected)

        cgm = np.asarray(tick.cgm, dtype=float)
        # vectorized value screens — a handful of (B,) comparisons, so
        # the all-healthy fleet stays on the zero-copy fast path
        glucose_ok = np.isfinite(cgm) & (cgm >= 0.0)
        value_ok = glucose_ok
        for channel in (tick.iob, tick.iob_rate, tick.rate, tick.bolus,
                        tick.action):
            value_ok = value_ok & np.isfinite(
                np.asarray(channel, dtype=float))
        ok: Optional[np.ndarray] = None
        if not value_ok.all():
            ok = value_ok
            for j in np.flatnonzero(~value_ok):
                if not glucose_ok[j]:
                    self._reject(rejected, tick.t, user_ids[j],
                                 "bad-glucose", float(cgm[j]))
                else:
                    self._reject(rejected, tick.t, user_ids[j],
                                 "bad-channel", None)

        if user_ids is self._cached_ids:
            slots = self._cached_slots
        else:
            slots, ok = self._resolve_or_reject(user_ids, tick.t,
                                                rejected, ok)

        # stale / re-delivered ticks: a slot that already applied a tick
        # at time >= t must not apply this one (at-least-once delivery
        # and post-recovery redelivery both land here)
        if ok is None:
            stale = self._seen[slots] & (tick.t <= self._last_t[slots])
            if stale.any():
                ok = ~stale
                for j in np.flatnonzero(stale):
                    self._reject(rejected, tick.t, user_ids[j],
                                 "stale-timestamp", float(tick.t))
        else:
            alive = np.flatnonzero(ok)
            stale_local = (self._seen[slots[alive]]
                           & (tick.t <= self._last_t[slots[alive]]))
            for j in alive[stale_local]:
                self._reject(rejected, tick.t, user_ids[j],
                             "stale-timestamp", float(tick.t))
                ok[j] = False

        keep: Optional[np.ndarray] = None
        if ok is not None:
            keep = np.flatnonzero(ok)
            if len(keep) == 0:
                return self._empty_result(tick, rejected)
            kept_ids: Tuple[Hashable, ...] = tuple(user_ids[j] for j in keep)
            kept_slots = slots[keep]
            kept_cgm = cgm[keep]
            kept_iob = np.asarray(tick.iob, dtype=float)[keep]
            kept_iob_rate = np.asarray(tick.iob_rate, dtype=float)[keep]
            kept_rate = np.asarray(tick.rate, dtype=float)[keep]
            kept_bolus = np.asarray(tick.bolus, dtype=float)[keep]
            kept_action = np.asarray(tick.action)[keep]
        else:
            kept_ids = user_ids
            kept_slots = slots
            kept_cgm = cgm
            kept_iob, kept_iob_rate = tick.iob, tick.iob_rate
            kept_rate, kept_bolus = tick.rate, tick.bolus
            kept_action = tick.action

        # the offline backward difference, computed live: zero on a
        # user's first tick, (cgm - previous) / dt afterwards — identical
        # float arithmetic to context_matrix, which is the parity anchor
        bg_rate = np.where(self._seen[kept_slots],
                           (kept_cgm - self._last_cgm[kept_slots]) / self.dt,
                           0.0)
        batch = ContextBatch.from_tick(
            t=tick.t, bg=kept_cgm, bg_rate=bg_rate, iob=kept_iob,
            iob_rate=kept_iob_rate, rate=kept_rate, bolus=kept_bolus,
            action=kept_action, dt=self.dt)

        alerts: Dict[str, np.ndarray] = {}
        hazards: Dict[str, np.ndarray] = {}
        for name, monitor in self.registry.items():
            # gather the ticking slots' state columns, advance, scatter
            state = self._state[name]
            columns = {key: column[..., kept_slots]
                       for key, column in state.items()}
            monitor_alerts, monitor_hazards = monitor.observe_batch(
                batch, state=columns)
            for key, column in columns.items():
                state[key][..., kept_slots] = column
            alerts[name] = monitor_alerts[0]
            hazards[name] = monitor_hazards[0]

        self._last_cgm[kept_slots] = kept_cgm
        self._seen[kept_slots] = True
        self._last_t[kept_slots] = tick.t

        events: List[AlertEvent] = []
        for name in alerts:
            events.extend(self.alert_manager.observe_tick(
                tick.t, name, kept_ids, alerts[name], hazards[name]))

        if keep is not None:
            # scatter the healthy-subset verdicts back to (B,) — rejected
            # rows read exactly like silent ones
            for name in alerts:
                full_alerts = np.zeros(n, dtype=bool)
                full_alerts[keep] = alerts[name]
                full_hazards = np.zeros(n, dtype=int)
                full_hazards[keep] = hazards[name]
                alerts[name] = full_alerts
                hazards[name] = full_hazards

        self._ticks_processed += 1
        self._recent_rejects.append(bool(rejected))
        self._maybe_snapshot()
        self._journal_sync()
        return TickResult(t=tick.t, user_ids=user_ids, alerts=alerts,
                          hazards=hazards, events=events, rejected=rejected)

    # ------------------------------------------------------------------
    # crash safety: journal, snapshot, recover
    # ------------------------------------------------------------------
    def _init_persistence(self, directory: str) -> None:
        os.makedirs(directory, exist_ok=True)
        if (os.path.exists(os.path.join(directory, CONFIG_NAME))
                or list_segments(directory) or list_snapshots(directory)):
            raise PersistenceError(
                f"{directory} already holds persisted service state; use "
                "MonitorService.recover() to restore it, or point "
                "persist_dir at an empty directory")
        registry_saved = True
        try:
            self.registry.save(os.path.join(directory, REGISTRY_DIRNAME))
        except (RegistryError, NotImplementedError):
            # a registry carrying unsupported monitor kinds cannot be
            # auto-persisted; recover() will require monitors= instead.
            # Anything else (a full disk) is a real failure and raises.
            registry_saved = False
        write_config(directory, {
            "dt": self.dt,
            "dedup_window": self.alert_manager.window,
            "escalate_after": self.alert_manager.escalate_after,
            "auto_connect": self.auto_connect,
            "dead_letter_capacity": self.dead_letters.maxlen,
            "health_window": self.health_window,
            "registry_saved": registry_saved})
        self.persist_dir = directory
        self._segment_seq = 0
        self._journal = TickJournal(segment_path(directory, 0),
                                    fsync=self.fsync)

    def _journal_record(self, kind: str, payload: object) -> None:
        if self._journal is not None and not self._replaying:
            self._journal.append(kind, payload)

    def _journal_tick(self, tick: TickBatch) -> None:
        if self._journal is None or self._replaying:
            return
        # a stable fleet sends the same roster every tick, and re-pickling
        # B id strings per record is the largest journal cost at fleet
        # scale — a roster equal to the previous record's in this segment
        # is written as None ("same as the previous tick record")
        ids = tick.user_ids
        same = ids is self._journal_uids or ids == self._journal_uids
        # sync=False: the record reaches the kernel now and background
        # writeback overlaps the monitor evaluation; _journal_sync()
        # makes it durable before the tick result is returned, so no
        # acknowledgement ever outruns the write-ahead log
        self._journal.append("tick", {
            "t": tick.t, "user_ids": None if same else ids,
            "cgm": tick.cgm, "iob": tick.iob, "iob_rate": tick.iob_rate,
            "rate": tick.rate, "bolus": tick.bolus, "action": tick.action},
            sync=False)
        self._journal_uids = ids

    def _journal_sync(self) -> None:
        if self._journal is not None and not self._replaying:
            self._journal.sync()

    def _maybe_snapshot(self) -> None:
        if (self._journal is not None and not self._replaying
                and self.snapshot_every
                and self._ticks_processed % self.snapshot_every == 0):
            self.snapshot()

    def _export_snapshot_state(self) -> Dict[str, object]:
        return {
            "slots": dict(self._slots),
            "free": list(self._free),
            "last_cgm": self._last_cgm.copy(),
            "seen": self._seen.copy(),
            "last_t": self._last_t.copy(),
            "monitor_state": self._state,
            "alert_manager": self.alert_manager,
            "ticks_processed": self._ticks_processed,
            "rejected_total": self.rejected_total,
            "rejected_by_reason": dict(self.rejected_by_reason),
            "dead_letters": list(self.dead_letters),
            "recent_rejects": list(self._recent_rejects),
        }

    def _install_snapshot(self, state: Dict[str, object]) -> None:
        try:
            if "clones" in state:  # per-user clone blobs: an older build
                raise PersistenceError("snapshot layout predates this build")
            # builds that kept a per-user context ring also saved it as
            # "ring"; nothing reads it, so it is ignored
            self._slots = dict(state["slots"])
            self._free = list(state["free"])
            self._last_cgm = np.array(state["last_cgm"], dtype=float)
            self._seen = np.array(state["seen"], dtype=bool)
            self._last_t = np.array(state["last_t"], dtype=float)
            self._state = {}
            for name, monitor in self.registry.items():
                # the per-slot layout init_state gives, or a typed refusal
                layout = {key: (col.dtype, col.shape[:-1] + self._seen.shape)
                          for key, col in monitor.init_state(0).items()}
                saved = state["monitor_state"][name]
                if {key: (col.dtype, col.shape)
                        for key, col in saved.items()} != layout:
                    raise ValueError(f"{name} state is not the layout "
                                     f"{layout}")
                self._state[name] = dict(saved)
            self.alert_manager = state["alert_manager"]
            self._ticks_processed = int(state["ticks_processed"])
            self.rejected_total = int(state["rejected_total"])
            self.rejected_by_reason = dict(state["rejected_by_reason"])
            self.dead_letters = deque(state["dead_letters"],
                                      maxlen=self.dead_letters.maxlen)
            self._recent_rejects = deque(state["recent_rejects"],
                                         maxlen=self.health_window)
        except (KeyError, ValueError, TypeError) as exc:
            raise PersistenceError(
                f"snapshot state does not fit this service: {exc}") from exc
        self._cached_ids = None
        self._cached_slots = None

    def snapshot(self) -> str:
        """Atomically checkpoint the full service state; returns the path.

        Rotates the journal: ticks after the snapshot land in a fresh
        segment, and segments/snapshots the new checkpoint supersedes are
        pruned.  Crash-safe at every step — the snapshot appears via
        tmp-file + rename, and the old journal is only pruned after the
        new checkpoint is durable.
        """
        if self._journal is None:
            raise PersistenceError(
                "service has no persist_dir; nothing to snapshot")
        next_seq = self._segment_seq + 1
        path = snapshot_path(self.persist_dir, next_seq)
        write_snapshot(path, self._export_snapshot_state())
        self._journal.close()
        self._journal = TickJournal(segment_path(self.persist_dir, next_seq),
                                    fsync=self.fsync)
        # every segment is self-contained: its first tick record must
        # carry the full roster, never a reference into a pruned segment
        self._journal_uids = None
        self._segment_seq = next_seq
        for seq, old in list_snapshots(self.persist_dir):
            if seq < next_seq:
                os.remove(old)
        for seq, old in list_segments(self.persist_dir):
            if seq < next_seq:
                os.remove(old)
        self.snapshots_written += 1
        return path

    def close(self) -> None:
        """Flush and close the journal.  Further ``process`` calls on a
        persisted service raise; non-persisted services are unaffected."""
        if self._journal is not None:
            self._journal.close()

    @classmethod
    def recover(cls, directory: str,
                monitors: Optional[Union[MonitorRegistry,
                                         Mapping[str, SafetyMonitor]]] = None,
                fsync: bool = True, snapshot_every: Optional[int] = None
                ) -> "MonitorService":
        """Restore a persisted service: newest snapshot + journal replay.

        The recovered service's subsequent alert stream is element-wise
        identical to a run that never crashed.  A torn tail on the final
        journal segment (the record the crash interrupted) is discarded,
        truncated away and reported in :attr:`recovery_report`; any other
        damage — corrupted snapshot, mid-journal corruption, missing
        segment — raises the matching
        :class:`~repro.serve.persist.PersistenceError` subtype instead of
        silently serving from partial state.

        ``monitors`` defaults to the registry auto-saved at persist time;
        pass it explicitly when the registry held non-serializable kinds.
        """
        config = read_config(directory)
        if monitors is None:
            if not config.get("registry_saved"):
                raise PersistenceError(
                    f"{directory} was persisted without a serializable "
                    "registry; pass monitors= to recover()")
            monitors = MonitorRegistry.load(
                os.path.join(directory, REGISTRY_DIRNAME))
        # configs of builds with a context ring also hold "window", unread
        escalate = config["escalate_after"]
        service = cls(
            monitors, dt=float(config["dt"]),
            dedup_window=float(config["dedup_window"]),
            escalate_after=None if escalate is None else int(escalate),
            auto_connect=bool(config["auto_connect"]),
            dead_letter_capacity=int(config["dead_letter_capacity"]),
            health_window=int(config["health_window"]))
        service._recover_state(directory, fsync=fsync,
                               snapshot_every=snapshot_every)
        return service

    def _recover_state(self, directory: str, fsync: bool,
                       snapshot_every: Optional[int]) -> None:
        snapshots = list_snapshots(directory)
        start_seq = 0
        snapshot_seq = -1
        snapshot_ticks = 0
        if snapshots:
            snapshot_seq, snapshot_file = snapshots[-1]
            # a corrupt newest snapshot is a loud failure, not a silent
            # fall-back to an older fleet state
            self._install_snapshot(read_snapshot(snapshot_file))
            snapshot_ticks = self._ticks_processed
            start_seq = snapshot_seq
        replay_segments = [(seq, path) for seq, path
                           in list_segments(directory) if seq >= start_seq]
        records_replayed = 0
        ticks_replayed = 0
        torn_bytes = 0
        last_next_seq = 0
        expected_seq = start_seq
        self._replaying = True
        try:
            for i, (seq, path) in enumerate(replay_segments):
                if seq != expected_seq:
                    raise JournalCorruptError(
                        f"{directory}: journal segments jump from "
                        f"{expected_seq} to {seq} — a segment is missing")
                expected_seq += 1
                is_last = i == len(replay_segments) - 1
                result = read_journal(path, truncate_tail=is_last)
                if result.torn_tail_bytes and not is_last:
                    raise JournalCorruptError(
                        f"{path} has a torn tail but later segments exist "
                        "— mid-history truncation, not a crash tail")
                if is_last:
                    torn_bytes = result.torn_tail_bytes
                    last_next_seq = result.next_seq
                segment_uids = None  # roster references never cross segments
                for kind, payload in result.records:
                    records_replayed += 1
                    if kind == "tick":
                        if payload["user_ids"] is None:
                            if segment_uids is None:
                                raise JournalCorruptError(
                                    f"{path}: tick record references the "
                                    "previous roster, but no roster-bearing "
                                    "record precedes it in this segment")
                            payload = {**payload, "user_ids": segment_uids}
                        else:
                            segment_uids = payload["user_ids"]
                        self.process(TickBatch(**payload))
                        ticks_replayed += 1
                    elif kind == "connect":
                        self._connect(payload)
                    elif kind == "disconnect":
                        self._disconnect(payload)
                    else:
                        raise JournalCorruptError(
                            f"{path}: unknown record kind {kind!r}")
        finally:
            self._replaying = False
        self.persist_dir = directory
        self.fsync = bool(fsync)
        self.snapshot_every = snapshot_every
        self._segment_seq = (replay_segments[-1][0] if replay_segments
                             else start_seq)
        tail_path = segment_path(directory, self._segment_seq)
        if os.path.exists(tail_path):
            self._journal = TickJournal(tail_path, fsync=self.fsync,
                                        next_seq=last_next_seq)
        else:
            self._journal = TickJournal(tail_path, fsync=self.fsync)
        self.recovery_report = RecoveryReport(
            directory=directory, snapshot_seq=snapshot_seq,
            snapshot_ticks=snapshot_ticks,
            segments_replayed=len(replay_segments),
            records_replayed=records_replayed,
            ticks_replayed=ticks_replayed, torn_tail_bytes=torn_bytes)


def replay_log(monitors: Union[MonitorRegistry, Mapping[str, SafetyMonitor]],
               traces: Sequence,
               service: Optional[MonitorService] = None
               ) -> Dict[str, List[np.ndarray]]:
    """Feed a recorded campaign through a service, trace = user.

    The replay-from-log driver: adapts *traces* into the live tick stream
    (:func:`~repro.simulation.store.iter_trace_ticks`), processes every
    tick, and reassembles per-trace raw alert streams in
    :func:`~repro.simulation.replay.replay_campaign` format (``name ->
    [per-trace boolean alert array]``) — so offline and served replay are
    directly comparable, and CI asserts them element-wise identical.

    Pass ``service=`` to drive an existing (e.g. crash-recovered)
    service instead of a fresh one: ticks the service already applied
    are quarantined by the stale-timestamp guard (reading False in the
    returned streams), and the remainder continues the recovered state —
    at-least-once redelivery of the whole log is safe.
    """
    traces = list(traces)
    if not traces:
        raise ValueError("cannot replay zero traces")
    dts = {float(trace.dt) for trace in traces}
    if len(dts) != 1:
        raise ValueError(f"traces must share one control period, got "
                         f"{sorted(dts)}")
    dt = dts.pop()
    if service is None:
        service = MonitorService(monitors, dt=dt)
    elif service.dt != dt:
        raise ValueError(f"service.dt={service.dt} does not match the "
                         f"traces' dt={dt}")
    user_ids = tuple(f"trace-{i}" for i in range(len(traces)))
    per_tick: Dict[str, List[np.ndarray]] = {name: [] for name
                                             in service.registry.names}
    for trace_tick in iter_trace_ticks(traces):
        tick = TickBatch(t=trace_tick.t, user_ids=user_ids,
                         cgm=trace_tick.cgm, iob=trace_tick.iob,
                         iob_rate=trace_tick.iob_rate, rate=trace_tick.rate,
                         bolus=trace_tick.bolus, action=trace_tick.action)
        result = service.process(tick)
        for name, flags in result.alerts.items():
            per_tick[name].append(flags)
    return {name: list(np.stack(columns, axis=0).T)
            for name, columns in per_tick.items()}
