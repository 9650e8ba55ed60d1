"""Fault-injection harness for the crash-safe serving layer.

The persistence layer's claims — bit-exact recovery, torn tails cleanly
discarded, corruption never silently absorbed — are only as good as the
faults they were tested against.  This module provides the injection
primitives and drivers the chaos suite (``tests/serve/test_chaos.py``)
and CI's crash-recovery smoke use:

- :func:`drive` / :func:`results_equal` — run a seeded synthetic fleet
  through a service and compare two result streams element-wise
  (alerts, hazards, events and quarantined rows all participate);
- :func:`crash_recovery_run` — process ticks up to a kill point,
  abandon the service (the in-process stand-in for ``kill -9``: the
  journal is written ahead of state, so everything an acknowledged tick
  needs is already on disk), :meth:`~repro.serve.service.MonitorService.
  recover`, and continue — returning the stitched result stream;
- byte-level corruptors: :func:`tear_journal_tail` (simulate a write cut
  mid-record), :func:`corrupt_journal_middle` (bit rot before the tail),
  :func:`corrupt_snapshot` and :func:`half_written_snapshot`;
- :func:`skewed_ticks` — a tick stream whose wall clock jumps backwards,
  for exercising the alert manager's clock-skew clamp.

Every injection point must end in one of exactly two outcomes: recovery
whose continued stream is element-wise identical to an uninterrupted
run, or a loud typed :class:`~repro.serve.persist.PersistenceError`.
Anything else — silent truncation, near-miss streams, a quiet fall-back
to older state — is a harness failure.
"""

from __future__ import annotations

import os
from typing import Hashable, List, Optional, Sequence, Tuple

import numpy as np

from .loadgen import LoadGenerator
from .persist import list_segments, list_snapshots, snapshot_path
from .service import MonitorService, TickBatch, TickResult

__all__ = [
    "fleet_ticks", "drive", "results_equal", "crash_recovery_run",
    "tear_journal_tail", "corrupt_journal_middle", "corrupt_snapshot",
    "half_written_snapshot", "skewed_ticks",
]


# ----------------------------------------------------------------------
# deterministic workloads
# ----------------------------------------------------------------------

def fleet_ticks(n_users: int, n_ticks: int, seed: int = 0,
                dt: float = 5.0) -> List[TickBatch]:
    """A seeded synthetic fleet's tick stream, materialised up front.

    Uses :class:`~repro.serve.loadgen.LoadGenerator` (mean-reverting BG
    walks, occasional boluses) so the stream is reproducible tick for
    tick — the precondition for comparing interrupted and uninterrupted
    runs at all.
    """
    generator = LoadGenerator(n_users=n_users, seed=seed, dt=dt)
    return [generator.tick() for _ in range(n_ticks)]


def skewed_ticks(ticks: Sequence[TickBatch], skew_at: int,
                 skew_minutes: float) -> List[TickBatch]:
    """Copy of *ticks* whose wall clock jumps back by *skew_minutes*
    from tick index *skew_at* onward (NTP step / gateway clock reset)."""
    skewed = []
    for i, tick in enumerate(ticks):
        t = tick.t - skew_minutes if i >= skew_at else tick.t
        skewed.append(TickBatch(t=t, user_ids=tick.user_ids, cgm=tick.cgm,
                                iob=tick.iob, iob_rate=tick.iob_rate,
                                rate=tick.rate, bolus=tick.bolus,
                                action=tick.action))
    return skewed


def drive(service: MonitorService,
          ticks: Sequence[TickBatch]) -> List[TickResult]:
    """Process every tick, returning the full result stream."""
    return [service.process(tick) for tick in ticks]


# ----------------------------------------------------------------------
# stream comparison — the parity yardstick
# ----------------------------------------------------------------------

def results_equal(a: Sequence[TickResult], b: Sequence[TickResult],
                  check_events: bool = True) -> Tuple[bool, str]:
    """Element-wise comparison of two result streams.

    Returns ``(True, "")`` when every tick matches — timestamps, user
    order, every monitor's raw alert/hazard vectors, quarantined rows,
    and (unless ``check_events=False``) the deduplicated event lists.
    On mismatch, returns ``(False, description)`` pointing at the first
    divergence, so a chaos failure names the tick and surface that broke.
    """
    if len(a) != len(b):
        return False, f"stream lengths differ: {len(a)} vs {len(b)}"
    for i, (ra, rb) in enumerate(zip(a, b)):
        if ra.t != rb.t:
            return False, f"tick {i}: t {ra.t} vs {rb.t}"
        if ra.user_ids != rb.user_ids:
            return False, f"tick {i}: user_ids differ"
        if set(ra.alerts) != set(rb.alerts):
            return False, (f"tick {i}: monitor sets differ: "
                           f"{sorted(ra.alerts)} vs {sorted(rb.alerts)}")
        for name in ra.alerts:
            if not np.array_equal(ra.alerts[name], rb.alerts[name]):
                return False, f"tick {i}: alerts[{name!r}] differ"
            if not np.array_equal(ra.hazards[name], rb.hazards[name]):
                return False, f"tick {i}: hazards[{name!r}] differ"
        if list(ra.rejected) != list(rb.rejected):
            return False, f"tick {i}: rejected rows differ"
        if check_events and list(ra.events) != list(rb.events):
            return False, f"tick {i}: emitted events differ"
    return True, ""


# ----------------------------------------------------------------------
# the crash/recover driver
# ----------------------------------------------------------------------

def crash_recovery_run(monitors, ticks: Sequence[TickBatch],
                       directory: str, kill_after: int,
                       snapshot_every: Optional[int] = None,
                       dt: float = 5.0,
                       connect_first: Sequence[Hashable] = (),
                       disconnect_at: Optional[Tuple[int, Hashable]] = None,
                       ) -> Tuple[List[TickResult], MonitorService]:
    """Run *ticks* with a kill after *kill_after* of them, then recover.

    A fresh persisted service processes ticks ``0..kill_after-1`` and is
    then abandoned without ``close()`` — the in-process equivalent of a
    hard kill, since the journal is flushed/fsync'd ahead of every state
    change.  :meth:`MonitorService.recover` rebuilds from the directory
    and processes the remaining ticks.  Returns the stitched result
    stream (pre-kill + post-recovery) and the recovered service, for
    comparison against an uninterrupted reference via
    :func:`results_equal`.

    ``connect_first`` pre-connects users explicitly (journaled connect
    records); ``disconnect_at=(k, uid)`` disconnects *uid* right before
    tick *k* — both exercise membership replay.
    """
    service = MonitorService(monitors, dt=dt, persist_dir=directory,
                             snapshot_every=snapshot_every)
    for uid in connect_first:
        service.connect(uid)
    results: List[TickResult] = []
    for i, tick in enumerate(ticks[:kill_after]):
        if disconnect_at is not None and disconnect_at[0] == i:
            service.disconnect(disconnect_at[1])
        results.append(service.process(tick))
    # hard kill: no close(), no snapshot — the WAL alone must carry it
    del service
    recovered = MonitorService.recover(directory)
    for i, tick in enumerate(ticks[kill_after:], start=kill_after):
        if disconnect_at is not None and disconnect_at[0] == i:
            recovered.disconnect(disconnect_at[1])
        results.append(recovered.process(tick))
    return results, recovered


# ----------------------------------------------------------------------
# byte-level fault injectors
# ----------------------------------------------------------------------

def _newest_segment(directory: str) -> str:
    segments = list_segments(directory)
    if not segments:
        raise ValueError(f"no journal segments in {directory}")
    return segments[-1][1]


def tear_journal_tail(directory: str, n_bytes: int) -> str:
    """Cut the last *n_bytes* off the newest journal segment — what a
    crash mid-``write`` leaves behind.  Returns the torn path."""
    path = _newest_segment(directory)
    size = os.path.getsize(path)
    with open(path, "r+b") as fh:
        fh.truncate(max(0, size - n_bytes))
    return path


def corrupt_journal_middle(directory: str, offset_from_start: int = None,
                           ) -> str:
    """Flip a byte *before* the newest segment's final record — bit rot
    that recovery must refuse (:class:`~repro.serve.persist.
    JournalCorruptError`), never skip.  Returns the corrupted path."""
    path = _newest_segment(directory)
    size = os.path.getsize(path)
    offset = (offset_from_start if offset_from_start is not None
              else min(size - 1, max(8, size // 3)))
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ 0xFF]))
    return path


def corrupt_snapshot(directory: str, offset: int = None) -> str:
    """Flip a byte inside the newest snapshot's payload; loading it must
    raise :class:`~repro.serve.persist.SnapshotError`."""
    snapshots = list_snapshots(directory)
    if not snapshots:
        raise ValueError(f"no snapshots in {directory}")
    path = snapshots[-1][1]
    size = os.path.getsize(path)
    offset = offset if offset is not None else size // 2
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ 0xFF]))
    return path


def half_written_snapshot(directory: str, seq: int = 9999) -> str:
    """Drop a half-written ``.tmp`` snapshot in the directory — what a
    crash mid-snapshot leaves.  Recovery must ignore it entirely (only
    the atomic rename publishes a snapshot).  Returns the tmp path."""
    path = snapshot_path(directory, seq) + ".tmp"
    with open(path, "wb") as fh:
        fh.write(b"RPSS\x01\x00\x00\x00partial garbage the rename never "
                 b"published")
    return path
