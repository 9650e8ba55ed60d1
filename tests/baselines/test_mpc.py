"""Tests for the MPC (Bergman & Sherwin) baseline monitor."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines import MPCMonitor
from repro.baselines.mpc import SCALAR_ROLLOUTS
from repro.controllers import ControlAction
from repro.core import ContextVector, MonitorVerdict, NO_ALERT
from repro.hazards import HazardType
from repro.patients.base import UU_PER_UNIT
from repro.simulation import ContextBatch


def ctx(bg=120.0, rate=1.5, bolus=0.0):
    return ContextVector(t=0.0, bg=bg, bg_rate=0.0, iob=0.0, iob_rate=0.0,
                         rate=rate, bolus=bolus, action=ControlAction.KEEP)


class TestPrediction:
    def test_silent_at_steady_state(self):
        monitor = MPCMonitor()
        verdict = monitor.observe(ctx(bg=120.0))
        assert not verdict.alert

    def test_massive_overdose_predicts_h1(self):
        monitor = MPCMonitor(horizon_steps=24)
        monitor.observe(ctx(bg=110.0))
        verdict = None
        for _ in range(12):
            verdict = monitor.observe(ctx(bg=110.0, rate=10.0, bolus=5.0))
        assert verdict.alert
        assert verdict.hazard == HazardType.H1

    def test_high_bg_with_no_insulin_predicts_h2(self):
        monitor = MPCMonitor(horizon_steps=24)
        verdict = monitor.observe(ctx(bg=175.0, rate=0.0))
        assert verdict.alert
        assert verdict.hazard == HazardType.H2

    def test_reset_clears_state(self):
        monitor = MPCMonitor(horizon_steps=24)
        for _ in range(12):
            monitor.observe(ctx(bg=120.0, rate=10.0))
        fresh = MPCMonitor(horizon_steps=24).observe(ctx(bg=120.0))
        assert monitor.clone().observe(ctx(bg=120.0)) == fresh
        assert monitor.observe(ctx(bg=120.0)) != fresh  # the overdose
        monitor.reset()
        assert monitor.observe(ctx(bg=120.0)) == fresh

    def test_population_model_not_patient_specific(self):
        """Same verdicts regardless of which patient produced the context."""
        m1, m2 = MPCMonitor(), MPCMonitor()
        v1 = m1.observe(ctx(bg=150.0))
        v2 = m2.observe(ctx(bg=150.0))
        assert v1.alert == v2.alert

    def test_validation(self):
        with pytest.raises(ValueError):
            MPCMonitor(horizon_steps=0)
        with pytest.raises(ValueError):
            MPCMonitor(bg_low=200, bg_high=100)
        # the model integrates at 1-minute steps: a fractional period or
        # horizon used to be rounded away silently
        for dt in (2.5, 0.5, 0, -5.0, math.nan, math.inf, "5"):
            with pytest.raises(ValueError, match="dt"):
                MPCMonitor(dt=dt)
        for horizon_steps in (2.5, 6.0, -1, True):
            with pytest.raises(ValueError, match="horizon_steps"):
                MPCMonitor(horizon_steps=horizon_steps)

    def test_whole_periods_and_horizons_accepted(self):
        for kwargs in ({}, {"dt": 5}, {"dt": 1.0}, {"dt": np.float64(3.0)},
                       {"horizon_steps": 1}, {"horizon_steps": np.int64(24)}):
            MPCMonitor(**kwargs)


class TestClosedLoop:
    def test_detects_rate_attack_in_simulation(self):
        from repro.fi import (FaultKind, FaultSpec, FaultTarget,
                              InjectionScenario)
        from repro.simulation import run_campaign
        scenario = InjectionScenario(
            FaultSpec(FaultKind.MAX, FaultTarget.RATE, 20, 24), 120.0)
        trace, = run_campaign(
            "glucosym", ["B"], [scenario],
            monitor_factory=lambda pid: MPCMonitor(horizon_steps=24))
        assert trace.alert.any()

    def test_mostly_silent_fault_free(self):
        from repro.simulation import run_fault_free
        trace, = run_fault_free(
            "glucosym", ["B"], (120.0,),
            monitor_factory=lambda pid: MPCMonitor(horizon_steps=24))
        assert trace.alert.mean() < 0.2


class ReferenceMPC(MPCMonitor):
    """The monitor's arithmetic as first written: an Euler loop over
    ``round(minutes)`` one-minute steps, run once for the horizon
    prediction and once more for the cycle's chain advance, on a scalar
    chain of its own."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.reset()

    def reset(self):
        self._isc = self._ip = 0.0
        self._ieff = None

    def reference_integrate(self, isc, ip, ieff, bg, insulin_uu_min, minutes):
        """Euler-integrate the population model for *minutes* at 1-min steps."""
        steps = max(int(round(minutes)), 1)
        for _ in range(steps):
            d_isc = insulin_uu_min / (self.tau1 * self.ci) - isc / self.tau1
            d_ip = (isc - ip) / self.tau2
            d_ieff = -self.p2 * ieff + self.p2 * self.si * ip
            d_bg = -(self.gezi + max(ieff, 0.0)) * bg + self.egp
            isc += d_isc
            ip += d_ip
            ieff += d_ieff
            bg = max(bg + d_bg, 1.0)
        return isc, ip, ieff, bg

    def observe(self, ctx):
        if self._ieff is None:
            ieff0 = max(self.egp / max(ctx.bg, 1.0) - self.gezi, 0.0)
            ip0 = ieff0 / self.si
            self._isc, self._ip, self._ieff = ip0, ip0, ieff0

        insulin_uu_min = (ctx.rate / 60.0 + ctx.bolus / self.dt) * UU_PER_UNIT
        isc, ip, ieff, bg = self._isc, self._ip, self._ieff, ctx.bg
        isc, ip, ieff, bg = self.reference_integrate(
            isc, ip, ieff, bg, insulin_uu_min, self.horizon_steps * self.dt)
        predicted = bg

        self._isc, self._ip, self._ieff, _ = self.reference_integrate(
            self._isc, self._ip, self._ieff, ctx.bg, insulin_uu_min, self.dt)

        if predicted < self.bg_low:
            return MonitorVerdict(alert=True, hazard=HazardType.H1)
        if predicted > self.bg_high:
            return MonitorVerdict(alert=True, hazard=HazardType.H2)
        return NO_ALERT


def raw(*values):
    """The IEEE bytes of *values*, NaN sign and payload included."""
    return np.array(values, dtype=float).tobytes()


#: IEEE edge cases: signed zeros, subnormals, the largest finite values,
#: NaNs of both signs and infinities
EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
         1.7976931348623157e308, -1e300, math.nan, -math.nan, math.inf,
         -math.inf)


def values(low, high):
    """Floats of the model's own magnitudes, mixed with every IEEE kind."""
    return st.one_of(st.floats(low, high), st.sampled_from(EDGES),
                     st.floats())


class TestKernel:
    """One rollout yields the prediction and the cycle's chain advance,
    bit for bit what two separate integrations gave."""

    @settings(max_examples=300, deadline=None)
    @given(isc=values(-50.0, 500.0), ip=values(-50.0, 500.0),
           ieff=values(-0.1, 1.0), bg=values(0.0, 700.0),
           insulin=values(0.0, 2e6), horizon_steps=st.integers(1, 30),
           dt=st.integers(1, 10))
    @example(isc=12.0, ip=12.0, ieff=math.nan, bg=120.0, insulin=2.5e4,
             horizon_steps=6, dt=5)
    @example(isc=12.0, ip=12.0, ieff=-math.nan, bg=120.0, insulin=2.5e4,
             horizon_steps=24, dt=5)
    @example(isc=12.0, ip=12.0, ieff=math.inf, bg=120.0, insulin=2.5e4,
             horizon_steps=6, dt=5)
    @example(isc=12.0, ip=12.0, ieff=0.009, bg=math.inf, insulin=2.5e4,
             horizon_steps=6, dt=5)
    @example(isc=12.0, ip=12.0, ieff=0.009, bg=120.0, insulin=math.inf,
             horizon_steps=24, dt=5)
    @example(isc=-0.0, ip=-0.0, ieff=-0.0, bg=-0.0, insulin=-0.0,
             horizon_steps=1, dt=1)
    @example(isc=40.0, ip=40.0, ieff=0.8, bg=60.0, insulin=2e6,
             horizon_steps=24, dt=5)
    def test_one_rollout_is_both_integrations(self, isc, ip, ieff, bg,
                                              insulin, horizon_steps, dt):
        monitor = MPCMonitor(horizon_steps=horizon_steps, dt=dt)
        reference = ReferenceMPC(horizon_steps=horizon_steps, dt=dt)
        predicted, chain = monitor._integrate(isc, ip, ieff, bg, insulin)
        expected_bg = reference.reference_integrate(
            isc, ip, ieff, bg, insulin, horizon_steps * reference.dt)[3]
        expected_chain = reference.reference_integrate(
            isc, ip, ieff, bg, insulin, reference.dt)[:3]
        assert raw(predicted) == raw(expected_bg)
        assert raw(*chain) == raw(*expected_chain)


def seeded_contexts(seed, n):
    """A stream of cycles swinging BG, basal rates and boluses."""
    rng = np.random.default_rng(seed)
    bg = rng.uniform(30.0, 400.0, n)
    rate = np.where(rng.random(n) < 0.2, 0.0, rng.uniform(0.0, 6.0, n))
    bolus = np.where(rng.random(n) < 0.1, rng.uniform(0.0, 8.0, n), 0.0)
    return [ctx(bg=float(b), rate=float(r), bolus=float(u))
            for b, r, u in zip(bg, rate, bolus)]


@pytest.mark.parametrize("horizon_steps,dt", [(6, 5.0), (24, 5.0), (1, 1.0),
                                              (7, 3.0)])
def test_observe_stream_matches_two_call_observe(horizon_steps, dt):
    monitor = MPCMonitor(horizon_steps=horizon_steps, dt=dt)
    reference = ReferenceMPC(horizon_steps=horizon_steps, dt=dt)
    state = monitor.init_state(1)
    verdicts = set()
    for cycle, context in enumerate(seeded_contexts(horizon_steps, 200)):
        alerts, hazards = monitor.observe_batch(one_cycle(context, dt),
                                                state=state)
        expected = reference.observe(context)
        assert (alerts[0, 0], hazards[0, 0]) == (
            expected.alert, 0 if expected.hazard is None
            else int(expected.hazard)), cycle
        assert (raw(state["isc"][0], state["ip"][0], state["ieff"][0])
                == raw(reference._isc, reference._ip, reference._ieff)), cycle
        verdicts.add(expected.hazard)
    assert len(verdicts) > 1


def one_cycle(context, dt):
    """*context* as a ``(1, 1)`` batch."""
    return ContextBatch.from_tick(
        t=context.t, bg=[context.bg], bg_rate=[context.bg_rate],
        iob=[context.iob], iob_rate=[context.iob_rate], rate=[context.rate],
        bolus=[context.bolus], action=[int(context.action)], dt=dt)


def stack_ticks(ticks):
    """One batch holding the ``(1, B)`` *ticks* as consecutive cycles."""
    return ContextBatch(
        t=np.concatenate([tick.t for tick in ticks]),
        features=np.concatenate([tick.features for tick in ticks]),
        action=np.concatenate([tick.action for tick in ticks]),
        dt=ticks[0].dt)


def random_batch(rng, n_steps, n_cols):
    """*n_steps* cycles of *n_cols* streams, as the live tick builds them."""
    ticks = [ContextBatch.from_tick(
        t=5.0 * step, bg=rng.uniform(30.0, 400.0, n_cols),
        bg_rate=np.zeros(n_cols), iob=np.zeros(n_cols),
        iob_rate=np.zeros(n_cols), rate=rng.uniform(0.0, 6.0, n_cols),
        bolus=np.where(rng.random(n_cols) < 0.1,
                       rng.uniform(0.0, 8.0, n_cols), 0.0),
        action=np.full(n_cols, int(ControlAction.KEEP)), dt=5.0)
        for step in range(n_steps)]
    return stack_ticks(ticks)


#: (n_steps, n_cols) on both sides of the kernel/numpy switch
BATCH_SHAPES = {
    "tick-1": (1, 1),
    "tick-at-threshold": (1, SCALAR_ROLLOUTS),
    "tick-above-threshold": (1, SCALAR_ROLLOUTS + 1),
    "cycles-below-threshold": (SCALAR_ROLLOUTS // 7, 7),
    "cycles-above-threshold": (SCALAR_ROLLOUTS // 5 + 1, 5),
}


@pytest.mark.parametrize("shape", list(BATCH_SHAPES.values()),
                         ids=list(BATCH_SHAPES))
def test_batches_match_the_per_column_oracle(shape):
    """Consecutive batches through one state equal one two-call
    ``observe`` stream per column: verdicts and chain bytes."""
    n_steps, n_cols = shape
    monitor = MPCMonitor(horizon_steps=24)
    references = [ReferenceMPC(horizon_steps=24) for _ in range(n_cols)]
    state = monitor.init_state(n_cols)
    rng = np.random.default_rng(n_steps * 1000 + n_cols)
    fired = set()
    n_calls = max(4, 48 // (n_steps * n_cols))
    for call in range(n_calls):
        if call == n_calls // 2:
            # a restarted column begins fresh next to carried ones
            for key in state:
                state[key][0] = np.nan
            references[0].reset()
        batch = random_batch(rng, n_steps, n_cols)
        alerts, hazards = monitor.observe_batch(batch, state=state)
        for col, reference in enumerate(references):
            verdicts = [reference.observe(context)
                        for context in batch.iter_column(col)]
            assert alerts[:, col].tolist() == [v.alert for v in verdicts]
            assert hazards[:, col].tolist() == [
                0 if v.hazard is None else int(v.hazard) for v in verdicts]
            assert (raw(state["isc"][col], state["ip"][col],
                        state["ieff"][col])
                    == raw(reference._isc, reference._ip, reference._ieff))
        fired.update(hazards.ravel().tolist())
    assert fired == {0, int(HazardType.H1), int(HazardType.H2)}


def test_batch_without_columns():
    monitor = MPCMonitor()
    state = monitor.init_state(0)
    alerts, hazards = monitor.observe_batch(
        random_batch(np.random.default_rng(0), 3, 0), state=state)
    assert alerts.shape == hazards.shape == (3, 0)
    assert all(value.shape == (0,) for value in state.values())


#: BG and insulin-rate streams with a non-finite input (horizon 24)
NON_FINITE_STREAMS = {
    "infinite-rate": ([120.0, 120.0, 60.0, 60.0, 200.0],
                      [1.0, math.inf, 1.0, 1.0, 1.0]),
    "nan-first-bg": ([math.nan, 250.0, 250.0, 250.0, 250.0],
                     [0.0] * 5),
}


@pytest.mark.parametrize("stream", list(NON_FINITE_STREAMS))
class TestNonFiniteInput:
    """A chain driven to NaN cannot be told from an unstarted column, so
    every path refuses non-finite inputs: tick by tick, one-shot and per
    cycle alike."""

    @staticmethod
    def ticks(stream):
        bgs, rates = NON_FINITE_STREAMS[stream]
        return [ContextBatch.from_tick(
            t=5.0 * k, bg=np.array([bg]), bg_rate=np.zeros(1),
            iob=np.zeros(1), iob_rate=np.zeros(1), rate=np.array([rate]),
            bolus=np.zeros(1), action=np.array([int(ControlAction.KEEP)]),
            dt=5.0) for k, (bg, rate) in enumerate(zip(bgs, rates))]

    def test_tick_by_tick(self, stream):
        monitor = MPCMonitor(horizon_steps=24)
        state = monitor.init_state(1)
        with pytest.raises(ValueError, match="finite"):
            for tick in self.ticks(stream):
                monitor.observe_batch(tick, state=state)

    def test_one_shot(self, stream):
        batch = stack_ticks(self.ticks(stream))
        with pytest.raises(ValueError, match="finite"):
            MPCMonitor(horizon_steps=24).observe_batch(batch)

    def test_observe(self, stream):
        monitor = MPCMonitor(horizon_steps=24)
        bgs, rates = NON_FINITE_STREAMS[stream]
        with pytest.raises(ValueError, match="finite"):
            for bg, rate in zip(bgs, rates):
                monitor.observe(ctx(bg=bg, rate=rate))
