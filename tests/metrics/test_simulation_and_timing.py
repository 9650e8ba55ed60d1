"""Tests for simulation-level metrics, timing metrics and Eq. 9 risk."""

import numpy as np
import pytest

from repro.fi import FaultKind, FaultSpec, FaultTarget
from repro.metrics import (
    first_alert_step,
    hazard_coverage,
    mitigation_outcome,
    reaction_stats,
    simulation_confusion,
    time_to_hazard_stats,
    trace_risk_index,
)
from tests.simulation.test_scenario_trace import build_trace

HYPO_BG = np.concatenate([np.full(10, 120.0), np.linspace(120, 35, 10),
                          np.full(10, 35.0)])
FAULT = FaultSpec(FaultKind.MAX, FaultTarget.RATE, 8, 6)


class TestSimulationLevel:
    def test_detected_hazard_is_tp(self):
        trace = build_trace(n=30, alerts={12}, hazard_bg=HYPO_BG, fault=FAULT)
        cm = simulation_confusion([trace], [trace.alert])
        assert cm.tp == 1 and cm.fn == 0

    def test_missed_hazard_is_fn(self):
        trace = build_trace(n=30, hazard_bg=HYPO_BG, fault=FAULT)
        cm = simulation_confusion([trace], [trace.alert])
        assert cm.fn == 1

    def test_pre_fault_alert_is_fp(self):
        trace = build_trace(n=30, alerts={2}, hazard_bg=HYPO_BG, fault=FAULT)
        cm = simulation_confusion([trace], [trace.alert])
        assert cm.fp == 1  # alert at step 2 < fault step 8
        assert cm.tp == 0 and cm.fn == 1  # nothing in the post region

    def test_silent_safe_trace_is_tn(self):
        trace = build_trace(n=30, fault=FAULT)
        cm = simulation_confusion([trace], [trace.alert])
        assert cm.tn == 2  # both regions silent and safe

    def test_alert_on_safe_trace_is_fp(self):
        trace = build_trace(n=30, alerts={20}, fault=FAULT)
        cm = simulation_confusion([trace], [trace.alert])
        assert cm.fp == 1

    def test_length_mismatch(self):
        trace = build_trace(n=30)
        with pytest.raises(ValueError):
            simulation_confusion([trace], [np.zeros(5, dtype=bool)])

    def test_count_mismatch(self):
        trace = build_trace(n=30, hazard_bg=HYPO_BG, fault=FAULT)
        with pytest.raises(ValueError):
            simulation_confusion([trace, trace], [trace.alert])


class TestTiming:
    def test_hazard_coverage(self):
        hazardous = build_trace(n=30, hazard_bg=HYPO_BG, fault=FAULT)
        safe = build_trace(n=30)
        assert hazard_coverage([hazardous, safe]) == 0.5

    def test_hazard_coverage_empty(self):
        with pytest.raises(ValueError):
            hazard_coverage([])

    def test_tth_stats(self):
        trace = build_trace(n=30, hazard_bg=HYPO_BG, fault=FAULT)
        stats = time_to_hazard_stats([trace])
        assert stats["count"] == 1
        assert stats["mean"] == trace.time_to_hazard()

    def test_tth_stats_empty(self):
        stats = time_to_hazard_stats([build_trace(n=30)])
        assert stats["count"] == 0
        assert np.isnan(stats["mean"])

    def test_first_alert_step(self):
        assert first_alert_step(np.array([0, 0, 1, 1])) == 2
        assert first_alert_step(np.zeros(4)) is None

    def test_reaction_stats(self):
        trace = build_trace(n=30, alerts={5}, hazard_bg=HYPO_BG, fault=FAULT)
        stats = reaction_stats([trace], [trace.alert])
        th = trace.hazard_label.first_hazard
        assert stats.samples == [(th - 5) * 5.0]
        assert stats.early_detection_rate == 1.0

    def test_reaction_stats_missed_hazard(self):
        trace = build_trace(n=30, hazard_bg=HYPO_BG, fault=FAULT)
        stats = reaction_stats([trace], [trace.alert])
        assert stats.n_hazardous == 1
        assert stats.n_detected == 0
        assert stats.early_detection_rate == 0.0

    def test_reaction_stats_count_mismatch(self):
        trace = build_trace(n=30, alerts={5}, hazard_bg=HYPO_BG, fault=FAULT)
        with pytest.raises(ValueError):
            reaction_stats([trace, trace], [trace.alert])


class TestMitigationOutcome:
    def test_recovery_counted(self):
        base = build_trace(n=30, hazard_bg=HYPO_BG, fault=FAULT)
        fixed = build_trace(n=30, alerts={5}, fault=FAULT)  # now safe
        outcome = mitigation_outcome("m", [base], [fixed])
        assert outcome.baseline_hazards == 1
        assert outcome.recovered == 1
        assert outcome.recovery_rate == 1.0
        assert outcome.new_hazards == 0

    def test_new_hazard_counted_and_risk_charged(self):
        base = build_trace(n=30)  # safe without monitor
        harmed = build_trace(n=30, alerts={3}, hazard_bg=HYPO_BG, fault=FAULT)
        outcome = mitigation_outcome("m", [base], [harmed])
        assert outcome.new_hazards == 1
        assert outcome.average_risk > 0

    def test_missed_hazard_charged(self):
        base = build_trace(n=30, hazard_bg=HYPO_BG, fault=FAULT)
        still = build_trace(n=30, hazard_bg=HYPO_BG, fault=FAULT)  # no alerts
        outcome = mitigation_outcome("m", [base], [still])
        assert outcome.missed == 1
        assert outcome.average_risk > 0

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            mitigation_outcome("m", [build_trace()], [])

    def test_trace_risk_index_higher_for_hypo(self):
        safe = build_trace(n=30)
        hypo = build_trace(n=30, hazard_bg=HYPO_BG, fault=FAULT)
        assert trace_risk_index(hypo) > trace_risk_index(safe)


class TestRenderTable:
    def test_render(self):
        from repro.metrics import render_table
        text = render_table(("a", "b"), [(1, 0.5), ("x", 123.456)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "x" in lines[3]

    def test_row_width_mismatch(self):
        from repro.metrics import render_table
        with pytest.raises(ValueError):
            render_table(("a",), [(1, 2)])

    def test_nan_renders_as_dash(self):
        from repro.metrics import format_value
        assert format_value(float("nan")) == "-"
