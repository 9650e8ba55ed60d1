"""Tests for run-spec validation and SimulationTrace accessors."""

import math

import numpy as np
import pytest

from repro.fi import FaultKind, FaultSpec, FaultTarget, InjectionScenario
from repro.patients import Meal
from repro.simulation import (TRACE_COLUMN_DTYPES, CampaignPlan,
                              SimulationTrace, SimRun, run_batch,
                              run_campaign, run_fault_free)


class TestScenario:
    def test_defaults_match_paper(self):
        plan = CampaignPlan(platform="glucosym", runs=())
        assert plan.n_steps == 150
        assert plan.dt == 5.0
        assert plan.n_steps * plan.dt == 750.0
        assert SimRun("A", 120.0, "x").meals == ()

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            SimRun("A", 0, "x")
        with pytest.raises(ValueError):
            CampaignPlan(platform="glucosym", runs=(), n_steps=0)
        with pytest.raises(ValueError):
            CampaignPlan(platform="glucosym", runs=(), dt=0)

    @pytest.mark.parametrize("dt", [0.0, -5.0, math.nan, math.inf])
    def test_run_batch_refuses_bad_dt(self, dt):
        """A direct engine call skips the plan's check, so the engine
        refuses a period that would stall, reverse or poison the clock."""
        with pytest.raises(ValueError, match="dt"):
            run_batch("glucosym", [SimRun("B", 120.0, "x")], n_steps=5,
                      dt=dt)

    @pytest.mark.parametrize("time,carbs", [
        (10.0, -1.0), (10.0, math.nan), (10.0, math.inf),
        (math.nan, 40.0), (-math.inf, 40.0)])
    def test_impossible_meal_refused(self, time, carbs):
        with pytest.raises(ValueError, match="meal"):
            Meal(time, carbs)

    def test_meals_carried(self):
        run = SimRun("A", 120.0, "x", meals=(Meal(60.0, 40.0),))
        assert run.meals[0].carbs == 40.0

    @pytest.mark.parametrize("init", [0.0, -10.0, math.nan, math.inf])
    @pytest.mark.parametrize("platform,pid", [("glucosym", "B"),
                                              ("t1ds2013", "P01")])
    def test_impossible_initial_glucose_refused(self, platform, pid, init):
        """No patient starts at or below 0 mg/dL, or at NaN/inf: both
        entry points refuse the run before simulating anything."""
        with pytest.raises(ValueError, match="init_glucose"):
            run_fault_free(platform, [pid], (init,), cache=None)
        fault = FaultSpec(FaultKind.MAX, FaultTarget.RATE, 5, 5)
        with pytest.raises(ValueError, match="init_glucose"):
            run_campaign(platform, [pid], [InjectionScenario(fault, init)])


def build_trace(n=30, alerts=(), hazard_bg=None, fault=None):
    columns = {name: np.zeros(n, dtype=dtype)
               for name, dtype in TRACE_COLUMN_DTYPES.items()}
    bg = np.full(n, 120.0) if hazard_bg is None else np.asarray(hazard_bg)
    columns.update(t=5.0 * np.arange(n), true_bg=bg, cgm=bg, reading=bg)
    for name in ("ctrl_rate", "cmd_rate", "iob", "final_rate",
                 "delivered_rate"):
        columns[name][:] = 1.0
    columns["action"][:] = 4
    for i in alerts:
        columns["alert"][i] = True
        columns["alert_hazard"][i] = 1
    return SimulationTrace(platform="glucosym", patient_id="A", label="test",
                           dt=5.0, fault=fault, **columns)


class TestTraceAccessors:
    def test_first_alert(self):
        trace = build_trace(alerts={7, 9})
        assert trace.first_alert == 7

    def test_first_alert_none(self):
        assert build_trace().first_alert is None

    def test_reaction_time_requires_hazard(self):
        trace = build_trace(alerts={3})
        assert trace.reaction_time() is None  # safe trace

    def test_reaction_time_positive_for_early_alert(self):
        bg = np.concatenate([np.full(10, 120.0), np.linspace(120, 35, 10),
                             np.full(10, 35.0)])
        trace = build_trace(n=30, alerts={5}, hazard_bg=bg)
        assert trace.hazardous
        rt = trace.reaction_time()
        assert rt == (trace.hazard_label.first_hazard - 5) * 5.0
        assert rt > 0

    def test_time_to_hazard_uses_fault_start(self):
        bg = np.concatenate([np.full(10, 120.0), np.linspace(120, 35, 10),
                             np.full(10, 35.0)])
        fault = FaultSpec(FaultKind.MAX, FaultTarget.RATE, 8, 6)
        trace = build_trace(n=30, hazard_bg=bg, fault=fault)
        assert trace.time_to_hazard() == (trace.hazard_label.first_hazard - 8) * 5.0

    def test_summary_mentions_fault_and_hazard(self):
        fault = FaultSpec(FaultKind.MAX, FaultTarget.RATE, 8, 6)
        trace = build_trace(fault=fault)
        assert "max_rate" in trace.summary()
        assert "safe" in trace.summary()

    def test_hazard_label_cached(self):
        trace = build_trace()
        assert trace.hazard_label is trace.hazard_label
