"""Deterministic load generator and throughput measurement for the service.

Synthesises a fleet of plausible CGM/insulin streams — a mean-reverting
glucose random walk with occasional boluses, fully vectorized and seeded —
and drives a :class:`~repro.serve.service.MonitorService` tick by tick
while timing **only** the service's :meth:`~repro.serve.service.
MonitorService.process` calls.  The report carries the two numbers the
bench gate tracks: sustained throughput (user-ticks per second of service
time) and the p99 per-tick latency.

Everything is deterministic in the seed: two generators with the same
``(n_users, seed)`` produce identical tick streams, so bench runs are
reproducible and regressions are attributable to the code, not the load.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import List, Tuple

import numpy as np

from ..controllers import ControlAction
from .service import MonitorService, TickBatch

__all__ = ["LoadGenerator", "LoadReport", "run_load"]


@dataclass(frozen=True)
class LoadReport:
    """Measured service throughput under synthetic load."""

    n_users: int
    n_ticks: int
    service_seconds: float
    users_per_sec: float
    p50_tick_ms: float
    p99_tick_ms: float
    max_tick_ms: float
    n_raw_alerts: int
    n_events: int

    def summary(self) -> str:
        return (f"{self.n_users} users x {self.n_ticks} ticks: "
                f"{self.users_per_sec:,.0f} user-ticks/s sustained, "
                f"p50 {self.p50_tick_ms:.2f} ms, "
                f"p99 {self.p99_tick_ms:.2f} ms per tick "
                f"({self.n_raw_alerts} raw alerts -> "
                f"{self.n_events} notifications)")


class LoadGenerator:
    """Seeded synthetic fleet: one call per tick, vectorized over users.

    Glucose follows a per-user mean-reverting random walk around a
    per-user setpoint inside the normal range; IOB decays toward a basal
    equilibrium and jumps on the occasional synthetic bolus.  The
    commanded action is KEEP except on bolus ticks (INCREASE) — plausible
    enough to exercise every monitor's arithmetic without drowning the
    alert path (a small excursion fraction still alerts).
    """

    def __init__(self, n_users: int, seed: int = 0, dt: float = 5.0,
                 bolus_rate: float = 0.01):
        if n_users < 1:
            raise ValueError(f"n_users must be >= 1, got {n_users}")
        self.n_users = int(n_users)
        self.dt = float(dt)
        self.bolus_rate = float(bolus_rate)
        self.user_ids: Tuple[str, ...] = tuple(
            f"user-{i}" for i in range(self.n_users))
        self._rng = np.random.default_rng(seed)
        self._setpoint = self._rng.uniform(100.0, 160.0, self.n_users)
        self._bg = self._setpoint + self._rng.normal(0.0, 10.0, self.n_users)
        self._iob = self._rng.uniform(0.5, 2.0, self.n_users)
        self._basal = self._rng.uniform(0.8, 1.6, self.n_users)
        self._tick_index = 0

    def tick(self) -> TickBatch:
        """The next cycle's :class:`~repro.serve.service.TickBatch`."""
        rng = self._rng
        n = self.n_users
        t = self._tick_index * self.dt
        self._tick_index += 1
        # mean-reverting glucose walk (keeps most users in range, with a
        # drifting tail that genuinely alerts)
        pull = 0.08 * (self._setpoint - self._bg)
        self._bg = self._bg + pull + rng.normal(0.0, 2.0, n)
        bolus_mask = rng.random(n) < self.bolus_rate
        bolus = np.where(bolus_mask, rng.uniform(0.5, 3.0, n), 0.0)
        self._iob = np.maximum(
            0.0, self._iob * 0.97 + bolus + self._basal * (self.dt / 60.0)
            * 0.03)
        iob_rate = rng.normal(0.0, 0.01, n)
        action = np.where(bolus_mask, int(ControlAction.INCREASE),
                          int(ControlAction.KEEP))
        return TickBatch(t=t, user_ids=self.user_ids, cgm=self._bg.copy(),
                         iob=self._iob.copy(), iob_rate=iob_rate,
                         rate=self._basal.copy(), bolus=bolus,
                         action=action)


def run_load(service: MonitorService, n_users: int, n_ticks: int,
             seed: int = 0, warmup_ticks: int = 1) -> LoadReport:
    """Drive *service* with a synthetic fleet and measure throughput.

    ``warmup_ticks`` extra untimed cycles run first (slot allocation,
    ring growth and monitor state set-up all happen on first sight of the
    fleet and should not pollute the steady-state numbers).
    """
    if n_ticks < 1:
        raise ValueError(f"n_ticks must be >= 1, got {n_ticks}")
    if warmup_ticks < 0:
        raise ValueError(f"warmup_ticks must be >= 0, got {warmup_ticks}")
    generator = LoadGenerator(n_users, seed=seed, dt=service.dt)
    for _ in range(warmup_ticks):
        service.process(generator.tick())
    latencies: List[float] = []
    n_raw_alerts = 0
    n_events = 0
    for _ in range(n_ticks):
        tick = generator.tick()
        start = perf_counter()
        result = service.process(tick)
        latencies.append(perf_counter() - start)
        n_raw_alerts += int(sum(flags.sum() for flags in
                                result.alerts.values()))
        n_events += len(result.events)
    seconds = float(sum(latencies))
    ms = np.asarray(latencies) * 1e3
    return LoadReport(
        n_users=n_users, n_ticks=n_ticks, service_seconds=seconds,
        users_per_sec=n_users * n_ticks / seconds if seconds > 0 else
        float("inf"),
        p50_tick_ms=float(np.percentile(ms, 50)),
        p99_tick_ms=float(np.percentile(ms, 99)),
        max_tick_ms=float(ms.max()),
        n_raw_alerts=n_raw_alerts, n_events=n_events)
