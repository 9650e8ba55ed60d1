"""Alert deduplication and escalation for the serving layer.

A monitor that predicts a hazard keeps predicting it on nearly every
subsequent cycle until the excursion resolves — useful for mitigation,
useless as a notification stream.  Production CGM alerting (e.g. the
TypeOneZen Dexcom-share loop this layer is modelled on) therefore dedups
repeat alerts inside a wall-clock window; we use the same 2-hour default.

Semantics, per ``(user, monitor)`` stream:

- the first raw alert **emits** an :class:`AlertEvent`;
- later raw alerts are **suppressed** while ``t - last_emit < window``
  (a raw alert at exactly ``t - last_emit == window`` emits again);
- a raw alert whose hazard *differs* from the last emitted hazard emits
  immediately (H1 vs H2 is a clinically different situation, never
  deduped away);
- once the consecutive-alert streak since the last emission reaches
  ``escalate_after`` ticks, one escalation event (``escalated=True``)
  emits early, carrying the suppressed count — a sustained excursion
  should not stay silent for the whole window.  At most one escalation
  per dedup window; the window timer restarts at the escalation.
- a silent tick resets the streak but **not** the window timer (dedup is
  wall-clock, not streak-based).

The raw per-tick alert vectors are untouched by all of this — the serving
parity contract is checked on raw streams; dedup is strictly downstream.
The bulk entry point (:meth:`AlertManager.observe_tick`) only walks the
alerted columns plus the streams that need a streak reset, so quiet fleets
cost nothing per tick regardless of user count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence

import numpy as np

__all__ = ["AlertEvent", "AlertManager", "DEFAULT_DEDUP_WINDOW_MINUTES"]

#: TypeOneZen's notification dedup window (minutes)
DEFAULT_DEDUP_WINDOW_MINUTES = 120.0


@dataclass(frozen=True)
class AlertEvent:
    """One emitted (post-dedup) notification.

    Attributes
    ----------
    t:
        Tick time stamp in minutes.
    user_id, monitor:
        The alerting stream.
    hazard:
        Predicted hazard-type code.
    suppressed:
        Raw alerts deduped since the previous emission on this stream.
    streak:
        Consecutive alerted ticks (including this one) at emit time.
    escalated:
        True when this event fired early because the streak reached the
        escalation threshold inside the dedup window.
    """

    t: float
    user_id: Hashable
    monitor: str
    hazard: int
    suppressed: int = 0
    streak: int = 1
    escalated: bool = False


@dataclass(slots=True)
class _StreamState:
    last_emit_t: float
    last_emit_hazard: int
    suppressed: int = 0          # raw alerts deduped since the last emit
    streak: int = 1              # consecutive alerted ticks (reporting)
    streak_since_emit: int = 0   # consecutive alerted ticks since the emit
    escalated_in_window: bool = False


@dataclass
class AlertManager:
    """Stateful dedup/escalation over per-tick raw alert streams.

    Parameters
    ----------
    window:
        Dedup window in minutes (see module docstring for the exact
        boundary semantics).
    escalate_after:
        Consecutive alerted ticks that force one early re-emission;
        ``None`` disables escalation.
    """

    window: float = DEFAULT_DEDUP_WINDOW_MINUTES
    escalate_after: Optional[int] = 24
    #: raw alerts whose wall clock ran *backwards* relative to the
    #: stream's last emission (clock skew): the timestamp is clamped to
    #: the last emit time for window arithmetic instead of silently
    #: reopening (negative elapsed) or corrupting the dedup window, and
    #: each occurrence is counted here for operators
    clock_skew_events: int = 0
    #: monitor name -> user id -> stream state
    _streams: Dict[str, Dict[Hashable, _StreamState]] = field(
        default_factory=dict, repr=False)

    def __post_init__(self):
        if self.window <= 0:
            raise ValueError(f"window must be positive, got {self.window}")
        if self.escalate_after is not None and self.escalate_after < 2:
            raise ValueError("escalate_after must be >= 2 (1 would re-emit "
                             "every tick) or None")

    def observe(self, t: float, user_id: Hashable, monitor: str,
                alert: bool, hazard: int) -> Optional[AlertEvent]:
        """Feed one raw tick verdict; returns the emitted event or None."""
        streams = self._streams.setdefault(monitor, {})
        state = streams.get(user_id)
        if not alert:
            if state is not None:
                state.streak = 0
                state.streak_since_emit = 0
            return None
        if state is None:
            streams[user_id] = _StreamState(last_emit_t=t,
                                            last_emit_hazard=hazard)
            return AlertEvent(t=t, user_id=user_id, monitor=monitor,
                              hazard=hazard)
        if t < state.last_emit_t:
            # non-monotone wall clock on this stream: clamp rather than
            # let a negative elapsed time warp the dedup window (a skewed
            # source could otherwise suppress alerts for up to 2x window)
            self.clock_skew_events += 1
            t = state.last_emit_t
        state.streak += 1
        state.streak_since_emit += 1
        escalate = (self.escalate_after is not None
                    and not state.escalated_in_window
                    and state.streak_since_emit >= self.escalate_after)
        if (t - state.last_emit_t >= self.window
                or hazard != state.last_emit_hazard or escalate):
            event = AlertEvent(t=t, user_id=user_id, monitor=monitor,
                               hazard=hazard, suppressed=state.suppressed,
                               streak=state.streak, escalated=escalate)
            state.last_emit_t = t
            state.last_emit_hazard = hazard
            state.suppressed = 0
            state.streak_since_emit = 0
            state.escalated_in_window = escalate
            return event
        state.suppressed += 1
        return None

    def observe_tick(self, t: float, monitor: str,
                     user_ids: Sequence[Hashable], alerts: np.ndarray,
                     hazards: np.ndarray) -> List[AlertEvent]:
        """Feed one monitor's whole tick column; returns emitted events.

        Equivalent to calling :meth:`observe` once per user, but only the
        alerted columns (plus existing streams whose streak must reset)
        are visited — the silent majority costs nothing.  Users absent
        from *user_ids* are untouched (a user that skips a tick neither
        alerts nor breaks its streak).
        """
        events: List[AlertEvent] = []
        alerted = np.flatnonzero(alerts)
        alerted_users = set()
        for j in alerted:
            user_id = user_ids[j]
            alerted_users.add(user_id)
            event = self.observe(t, user_id, monitor, True, int(hazards[j]))
            if event is not None:
                events.append(event)
        streams = self._streams.get(monitor)
        if streams and len(streams) > len(alerted_users):
            stale = [user_id for user_id, state in streams.items()
                     if state.streak and user_id not in alerted_users]
            if stale:
                present = set(user_ids)
                for user_id in stale:
                    if user_id in present:
                        state = streams[user_id]
                        state.streak = 0
                        state.streak_since_emit = 0
        return events

    def drop_user(self, user_id: Hashable) -> None:
        """Forget every stream of a disconnected user."""
        for streams in self._streams.values():
            streams.pop(user_id, None)

    @property
    def n_streams(self) -> int:
        return sum(len(streams) for streams in self._streams.values())
