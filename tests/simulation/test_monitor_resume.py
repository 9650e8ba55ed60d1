"""The resume contract of ``SafetyMonitor.observe_batch``.

Every monitor kind steps column batches from an explicit per-column state
(``init_state``).  Splitting a stream at any cycle and feeding both parts
through one state must reproduce the one-shot ``observe_batch`` (whose
columns each equal their stream replayed alone) element for element, and
leave the same state bytes -- the property the live engine, the online
service and the single-stream ``observe`` rely on when they step one
cycle per call.
"""

import dataclasses

import numpy as np
import pytest

from repro.baselines import GuidelineMonitor
from repro.serve import replay_log
from repro.simulation import (ContextBatch, iter_contexts, replay_campaign,
                              run_batch)
from repro.simulation.executor import SimRun
from tests.conftest import replay_alone
from tests.simulation.test_vector_mitigation import RisingStreakMonitor

KINDS = ("CAWT", "CAWOT", "Guideline", "MPC", "DT", "MLP", "LSTM",
         "RisingStreak", "Guideline-tight")
#: cycles per stream: long enough for Guideline excursions to fire
N_STEPS = 60


@pytest.fixture(scope="module")
def monitors(all_monitor_kinds):
    # percentile bands inside the normal range, so the phi3/phi4 timers
    # decide verdicts that phi1 would otherwise mask
    tight = GuidelineMonitor(lambda_10=130.0, lambda_90=140.0, alpha=10.0)
    return {**all_monitor_kinds, "RisingStreak": RisingStreakMonitor(),
            "Guideline-tight": tight}


@pytest.fixture(scope="module")
def streams(tiny_campaign_traces):
    """Six traces cut to ``N_STEPS`` cycles, and their context batch."""
    traces = [dataclasses.replace(trace, **{
        field.name: getattr(trace, field.name)[:N_STEPS]
        for field in dataclasses.fields(trace)
        if isinstance(getattr(trace, field.name), np.ndarray)})
        for trace in tiny_campaign_traces[::9]]
    return traces, ContextBatch.from_traces(traces)


def _cycles(batch, lo, hi):
    return ContextBatch(t=batch.t[lo:hi], features=batch.features[lo:hi],
                        action=batch.action[lo:hi], dt=batch.dt)


def _one_shot(monitor, traces, batch):
    """The fresh-state batch, checked against each stream alone."""
    alerts, hazards = monitor.observe_batch(batch)
    for b, trace in enumerate(traces):
        ref_alerts, ref_hazards = replay_alone(monitor, trace)
        np.testing.assert_array_equal(alerts[:, b], ref_alerts)
        np.testing.assert_array_equal(hazards[:, b], ref_hazards)
    assert alerts.any()
    return alerts, hazards


def _one_shot_state(monitor, batch):
    """The state one fresh-state call over the whole batch leaves."""
    state = monitor.init_state(batch.shape[1])
    monitor.observe_batch(batch, state=state)
    return state


def _assert_same_state(state, expected, where):
    """Every state entry holds *expected*'s bytes."""
    assert state.keys() == expected.keys(), where
    for key, value in expected.items():
        assert state[key].dtype == value.dtype, (where, key)
        assert state[key].shape == value.shape, (where, key)
        assert state[key].tobytes() == value.tobytes(), (where, key)


def _mid_state(kind, monitor, state):
    """Whether *state* is one of the cut points the contract must cover:
    inside the LSTM's first k-1 cycles, mid Guideline excursion, before
    MPC's first cycle."""
    if kind == "LSTM":
        return bool(np.any((state["filled"] > 0)
                           & (state["filled"] < monitor.k - 1)))
    if kind.startswith("Guideline"):
        return bool(np.any(~np.isnan(state["below_since"])
                           | ~np.isnan(state["above_since"])))
    if kind == "MPC":
        return bool(np.all(np.isnan(state["ieff"])))
    return True


@pytest.mark.parametrize("kind", KINDS)
def test_split_at_every_cut_resumes_exactly(monitors, streams, kind):
    traces, batch = streams
    monitor = monitors[kind]
    alerts, hazards = _one_shot(monitor, traces, batch)
    final = _one_shot_state(monitor, batch)
    mid_cuts = []
    for cut in range(N_STEPS + 1):
        state = monitor.init_state(batch.shape[1])
        head = monitor.observe_batch(_cycles(batch, 0, cut), state=state)
        if _mid_state(kind, monitor, state):
            mid_cuts.append(cut)
        tail = monitor.observe_batch(_cycles(batch, cut, N_STEPS),
                                     state=state)
        np.testing.assert_array_equal(
            np.concatenate([head[0], tail[0]]), alerts, f"cut {cut}")
        np.testing.assert_array_equal(
            np.concatenate([head[1], tail[1]]), hazards, f"cut {cut}")
        _assert_same_state(state, final, f"cut {cut}")
    assert mid_cuts


@pytest.mark.parametrize("kind", KINDS)
def test_cycle_by_cycle_resumes_exactly(monitors, streams, kind):
    """The live shape: one single-cycle batch per call, one state."""
    traces, batch = streams
    monitor = monitors[kind]
    alerts, hazards = _one_shot(monitor, traces, batch)
    state = monitor.init_state(batch.shape[1])
    steps = [monitor.observe_batch(_cycles(batch, step, step + 1),
                                   state=state)
             for step in range(N_STEPS)]
    np.testing.assert_array_equal(
        np.concatenate([step[0] for step in steps]), alerts)
    np.testing.assert_array_equal(
        np.concatenate([step[1] for step in steps]), hazards)
    _assert_same_state(state, _one_shot_state(monitor, batch),
                       "cycle by cycle")


@pytest.mark.parametrize("kind", KINDS)
def test_observe_steps_one_stream(monitors, streams, kind):
    """``observe`` steps the instance's own one-column stream: a trace fed
    one context at a time gets its one-shot verdicts, and ``reset``
    starts it over."""
    traces, batch = streams
    alerts, hazards = _one_shot(monitors[kind], traces, batch)
    b = int(np.flatnonzero(alerts.any(axis=0))[0])
    monitor = monitors[kind].clone()
    for _ in range(2):
        verdicts = [monitor.observe(ctx) for ctx in iter_contexts(traces[b])]
        assert [v.alert for v in verdicts] == alerts[:, b].tolist()
        assert [0 if v.hazard is None else int(v.hazard)
                for v in verdicts] == hazards[:, b].tolist()
        monitor.reset()


@pytest.mark.parametrize("kind", KINDS)
def test_columns_resume_independently(monitors, streams, kind):
    """A state column belongs to its stream alone: a gathered column
    subset (the service's ticking users) resumes exactly."""
    traces, batch = streams
    monitor = monitors[kind]
    alerts, _ = _one_shot(monitor, traces, batch)
    state = monitor.init_state(batch.shape[1])
    cut = N_STEPS // 2
    monitor.observe_batch(_cycles(batch, 0, cut), state=state)
    odd = np.arange(1, batch.shape[1], 2)
    sub = {key: value[..., odd] for key, value in state.items()}
    odd_alerts, _ = monitor.observe_batch(
        _cycles(batch, cut, N_STEPS).take_columns(odd), state=sub)
    np.testing.assert_array_equal(odd_alerts, alerts[cut:, odd])


class StatelessSignatureMonitor(RisingStreakMonitor):
    """An ``observe_batch`` override written without the ``state``
    parameter."""

    def observe_batch(self, batch):
        return RisingStreakMonitor.observe_batch(self, batch)


def test_override_without_state_replays_but_cannot_step(tiny_campaign_traces):
    traces = tiny_campaign_traces[:3]
    monitor = StatelessSignatureMonitor()
    offline = replay_campaign({"m": monitor}, traces)["m"]
    for alerts, trace in zip(offline, traces):
        np.testing.assert_array_equal(
            alerts, replay_alone(RisingStreakMonitor(), trace)[0])
    with pytest.raises(TypeError, match="state"):
        run_batch("glucosym", [SimRun(patient_id="A", init_glucose=150.0,
                                      label="x")],
                  n_steps=3, monitor_factory=lambda pid: monitor)
    with pytest.raises(TypeError, match="state"):
        replay_log({"m": monitor}, traces)
