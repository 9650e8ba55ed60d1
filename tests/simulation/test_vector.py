"""Tests for the lock-step vectorized simulation engine.

The acceptance property is width invariance: for any batch composition,
``LOCKSTEP_WIDTH`` and worker count, a run's trace is identical, byte for
byte, to the same run at the production width and to the run alone in a
batch of one (the shared ``assert_traces_equal`` fixture asserts every
array channel and all metadata).  ``test_golden.py`` pins the traces
themselves.
"""

import dataclasses

import numpy as np
import pytest

from repro.controllers.iob import InsulinActivityCurve
from repro.fi import (CampaignConfig, FaultKind, FaultSpec, FaultTarget,
                      generate_campaign)
from repro.patients import Meal, make_patient
from repro.simulation import (CampaignExecutor, CampaignPlan, plan_campaign,
                              plan_fault_free, run_batch, run_campaign,
                              run_fault_free)
from repro.simulation.executor import SimRun
from repro.simulation.vector import _iob_tables
from tests.conftest import LOCKSTEP_WIDTHS


def small_campaign(n=8):
    scenarios = generate_campaign(CampaignConfig(
        stride=1, init_glucose_values=(90.0, 160.0),
        timing_choices=((0, 6), (8, 10))))
    return scenarios[:n]


def one_by_one(platform, runs, n_steps, meals=None):
    """Each run alone, in a lock-step batch of one."""
    return [run_batch(platform, [run], n_steps,
                      meals=None if meals is None else [meals])[0]
            for run in runs]


class TestCampaignParity:
    """The lock-step width must be invisible in the output: executor
    traces equal the production-width run at every width."""

    @pytest.mark.parametrize("platform,patients", [
        ("glucosym", ["A", "B"]),
        ("t1ds2013", ["P01", "P02"]),
    ])
    def test_serial_vs_vector_both_platforms(self, platform, patients,
                                             assert_traces_equal,
                                             production_traces,
                                             set_lockstep_width):
        scenarios = small_campaign(6)
        reference = production_traces(plan_campaign(platform, patients,
                                                   scenarios, n_steps=30))
        for width in LOCKSTEP_WIDTHS:
            set_lockstep_width(width)
            vector = run_campaign(platform, patients, scenarios, n_steps=30)
            assert len(reference) == len(vector) == 12
            for s, v in zip(reference, vector):
                assert_traces_equal(s, v)

    @pytest.mark.parametrize("platform,patients", [
        ("glucosym", ["A", "B"]),
        ("t1ds2013", ["P01", "P02"]),
    ])
    def test_parity_past_the_dia_band(self, platform, patients,
                                      assert_traces_equal, production_traces,
                                      set_lockstep_width):
        """75 cycles: deliveries start leaving the 300-minute IOB band
        after cycle 60, so the engine's band sums with ``band_start > 0``
        are swept too.  Every other run eats, so batches mix fed and
        fasting rows."""
        n_steps = 75
        assert _iob_tables(InsulinActivityCurve(), n_steps, 5.0)[2][-1] > 0
        plan = plan_campaign(platform, patients, small_campaign(4),
                             n_steps=n_steps)
        meals = (Meal(time=40.0, carbs=45.0),)
        plan = dataclasses.replace(plan, runs=tuple(
            dataclasses.replace(run, meals=meals) if i % 2 else run
            for i, run in enumerate(plan.runs)))
        reference = production_traces(plan)
        for width in LOCKSTEP_WIDTHS:
            set_lockstep_width(width)
            vector = CampaignExecutor(1).run(plan)
            assert len(reference) == len(vector) == 8
            for s, v in zip(reference, vector):
                assert_traces_equal(s, v)

    def test_any_batch_size_identical(self, assert_traces_equal,
                                      production_traces, set_lockstep_width):
        scenarios = small_campaign(7)  # deliberately awkward sizes
        reference = production_traces(plan_campaign("glucosym", ["A"],
                                                   scenarios, n_steps=25))
        for width in (2, 3, 7, 50):  # ragged, exact, oversized
            set_lockstep_width(width)
            vector = run_campaign("glucosym", ["A"], scenarios, n_steps=25)
            for s, v in zip(reference, vector):
                assert_traces_equal(s, v)

    def test_batch_times_workers(self, assert_traces_equal, production_traces,
                                 set_lockstep_width):
        """The width and workers compose without changing one bit."""
        scenarios = small_campaign(8)
        plan = plan_campaign("glucosym", ["A", "B"], scenarios, n_steps=25)
        reference = production_traces(plan)
        for width in LOCKSTEP_WIDTHS:
            set_lockstep_width(width)
            combo = CampaignExecutor(2).run(plan)
            assert len(combo) == len(reference)
            for s, v in zip(reference, combo):
                assert_traces_equal(s, v)

    def test_non_default_dt_threads_through_plan(self, assert_traces_equal,
                                                 production_traces):
        """CampaignPlan.dt reaches the engine at every width."""
        scenarios = small_campaign(3)
        plan = plan_campaign("glucosym", ["A"], scenarios, n_steps=25,
                             dt=10.0)
        reference = production_traces(plan)
        vector = run_batch("glucosym", plan.runs[:1], n_steps=25, dt=10.0)
        assert reference[0].dt == vector[0].dt == 10.0
        np.testing.assert_array_equal(vector[0].t, np.arange(25) * 10.0)
        assert_traces_equal(reference[0], vector[0])

    def test_fault_free_vectorized(self, assert_traces_equal,
                                   production_traces, set_lockstep_width):
        reference = production_traces(plan_fault_free(
            "glucosym", ["A", "B"], (90.0, 120.0, 180.0), n_steps=30))
        for width in LOCKSTEP_WIDTHS:
            set_lockstep_width(width)
            vector = run_fault_free("glucosym", ["A", "B"],
                                    (90.0, 120.0, 180.0), n_steps=30,
                                    cache=None)
            for s, v in zip(reference, vector):
                assert_traces_equal(s, v)

    def test_monitored_campaign_batches_exactly(self, assert_traces_equal,
                                                production_traces,
                                                set_lockstep_width):
        """Monitored runs batch through the lock-step engine: the traces
        equal the production-width monitored run in every field at every
        width, and the dynamics match the monitor-less ones (a monitor
        alone never perturbs)."""
        from repro.core import cawot_monitor
        scenarios = small_campaign(2)
        factory = lambda pid: cawot_monitor()  # noqa: E731
        reference = production_traces(
            plan_campaign("glucosym", ["A"], scenarios, n_steps=25),
            monitor_factory=factory)
        for width in LOCKSTEP_WIDTHS:
            set_lockstep_width(width)
            monitored = run_campaign("glucosym", ["A"], scenarios,
                                     n_steps=25, monitor_factory=factory)
            plain = run_campaign("glucosym", ["A"], scenarios, n_steps=25)
            for s, m, p in zip(reference, monitored, plain):
                assert_traces_equal(s, m)
                assert np.array_equal(m.true_bg, p.true_bg)
                assert m.alert.dtype == np.bool_


class TestFaultKindCoverage:
    """Every manipulation type, across all four targets, stays exact."""

    def _runs(self, kinds_targets, start, duration):
        runs = []
        for kind, target, value in kinds_targets:
            fault = FaultSpec(kind=kind, target=target, start_step=start,
                              duration_steps=duration, value=value)
            runs.append(SimRun(patient_id="A", init_glucose=140.0,
                               label=fault.label, fault=fault))
        return runs

    @pytest.mark.parametrize("start,duration", [(0, 10), (5, 8), (20, 30)])
    def test_all_kinds_all_targets(self, start, duration,
                                   assert_traces_equal, production_traces,
                                   set_lockstep_width):
        grid = []
        for kind in FaultKind:
            for target in FaultTarget:
                value = {FaultKind.ADD: 60.0, FaultKind.SUB: 40.0,
                         FaultKind.SCALE: 0.5}.get(kind, 0.0)
                grid.append((kind, target, value))
        runs = self._runs(grid, start, duration)
        plan = CampaignPlan(platform="glucosym", runs=tuple(runs), n_steps=30)
        reference = production_traces(plan)
        for width in LOCKSTEP_WIDTHS:
            set_lockstep_width(width)
            vector = CampaignExecutor(1).run(plan)
            assert len(vector) == len(FaultKind) * len(FaultTarget)
            for s, v in zip(reference, vector):
                assert_traces_equal(s, v)

    def test_bolus_faults_on_basal_bolus_platform(self, assert_traces_equal):
        """BOLUS-target faults only matter where boluses exist (t1ds2013)."""
        grid = [(kind, FaultTarget.BOLUS,
                 {FaultKind.ADD: 2.0, FaultKind.SUB: 1.0,
                  FaultKind.SCALE: 0.5}.get(kind, 0.0))
                for kind in FaultKind]
        runs = [SimRun(patient_id="P01", init_glucose=190.0,
                       label=f"bolus/{kind.value}",
                       fault=FaultSpec(kind=kind, target=FaultTarget.BOLUS,
                                       start_step=2, duration_steps=12,
                                       value=value))
                for kind, _, value in grid]
        reference = one_by_one("t1ds2013", runs, 30)
        vector = run_batch("t1ds2013", runs, n_steps=30)
        for s, v in zip(reference, vector):
            assert_traces_equal(s, v)


class TestBatchComposition:
    def test_mixed_patients_one_batch(self, assert_traces_equal):
        scenarios = small_campaign(3)
        runs = [SimRun(patient_id=pid, init_glucose=s.init_glucose,
                       label=s.label, fault=s.fault)
                for s in scenarios for pid in ("A", "C", "B")]
        reference = one_by_one("glucosym", runs, 25)
        vector = run_batch("glucosym", runs, n_steps=25)
        for s, v in zip(reference, vector):
            assert_traces_equal(s, v)

    def test_mixed_fault_and_fault_free_rows(self, assert_traces_equal):
        fault = FaultSpec(FaultKind.MAX, FaultTarget.RATE, 3, 10)
        runs = [
            SimRun(patient_id="A", init_glucose=120.0, label="clean"),
            SimRun(patient_id="A", init_glucose=120.0, label="maxed",
                   fault=fault),
            SimRun(patient_id="B", init_glucose=80.0, label="clean2"),
        ]
        reference = one_by_one("glucosym", runs, 25)
        vector = run_batch("glucosym", runs, n_steps=25)
        for s, v in zip(reference, vector):
            assert_traces_equal(s, v)

    def test_empty_batch(self):
        assert run_batch("glucosym", [], n_steps=25) == []

    def test_empty_scenario_list_campaign(self):
        assert run_campaign("glucosym", ["A"], []) == []
        plan = plan_fault_free("glucosym", [], (), n_steps=25)
        assert CampaignExecutor(1).run(plan) == []

    def test_unknown_platform_rejected(self):
        with pytest.raises(KeyError):
            run_batch("nope", [SimRun("A", 120.0, "x")], n_steps=25)

    @pytest.mark.parametrize("platform,pid", [("glucosym", "A"),
                                              ("t1ds2013", "P01")])
    def test_meals_batch_parity(self, platform, pid, assert_traces_equal):
        """Scheduled meals run through the precomputed RA / ingestion
        timelines, and a row's meals never leak into its neighbours."""
        meals = (Meal(time=20.0, carbs=45.0), Meal(time=60.0, carbs=20.0))
        runs = [SimRun(patient_id=pid, init_glucose=120.0, label="meals"),
                SimRun(patient_id=pid, init_glucose=160.0, label="meals2")]
        fasting = SimRun(pid, 140.0, "fasting")
        reference = (one_by_one(platform, runs, 30, meals=meals)
                     + one_by_one(platform, [fasting], 30))
        vector = run_batch(platform, runs + [fasting], n_steps=30,
                           meals=[meals, meals, ()])
        assert vector[0].true_bg.max() > vector[2].true_bg.max() + 20.0
        for s, v in zip(reference, vector):
            assert_traces_equal(s, v)

    def test_run_level_meals_are_the_default_schedule(self,
                                                      assert_traces_equal):
        """With no explicit ``meals=``, each SimRun's own meal plan applies
        (the scenario-search path through the executors)."""
        meals = (Meal(time=20.0, carbs=45.0),)
        runs = [SimRun(patient_id="A", init_glucose=120.0, label="m",
                       meals=meals),
                SimRun(patient_id="A", init_glucose=160.0, label="n")]
        explicit = run_batch("glucosym", runs, n_steps=30,
                             meals=[meals, ()])
        implicit = run_batch("glucosym", runs, n_steps=30)
        for a, b in zip(explicit, implicit):
            assert_traces_equal(a, b)

    def test_misaligned_meals_rejected(self):
        with pytest.raises(ValueError, match="align"):
            run_batch("glucosym", [SimRun("A", 120.0, "x")], n_steps=10,
                      meals=[(), ()])


class TestExecutorKnobs:
    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert CampaignExecutor().workers == 3
        monkeypatch.delenv("REPRO_WORKERS")
        assert CampaignExecutor().workers == 1

    def test_invalid_batch_size(self, set_lockstep_width):
        plan = plan_fault_free("glucosym", ["A"], (120.0,), n_steps=10)
        set_lockstep_width(0)
        with pytest.raises(ValueError, match="LOCKSTEP_WIDTH"):
            CampaignExecutor(1).run(plan)
        with pytest.raises(ValueError, match="LOCKSTEP_WIDTH"):
            run_campaign("glucosym", ["A"], small_campaign(1), n_steps=10)

    def test_experiment_config_has_no_width_knob(self):
        from repro.experiments import ExperimentConfig
        with pytest.raises(TypeError):
            ExperimentConfig.preset("smoke", batch_size=32)
        with pytest.raises(TypeError):
            ExperimentConfig(batch_size=32)
        assert not hasattr(ExperimentConfig.preset("smoke"), "batch_size")


class TestVectorizedIOB:
    """The engine's IOB: the curve constants and its decay tables."""

    def test_constants_cached_once(self):
        curve = InsulinActivityCurve()
        assert curve._constants is curve._constants  # cached tuple identity

    def test_iob_at_matches_scalar(self):
        """The recorded net IOB is each earlier cycle's net delivery (an
        impulse at the cycle midpoint) times the curve's remaining
        fraction, summed left to right in delivery order."""
        fault = FaultSpec(FaultKind.ADD, FaultTarget.RATE, 5, 10, value=2.0)
        trace, = run_batch("glucosym", [SimRun("A", 160.0, "x", fault)],
                           n_steps=80)
        curve = InsulinActivityCurve()
        basal = make_patient("glucosym", "A").basal_rate(120.0)
        units = ((trace.delivered_rate - basal) * 5.0 / 60.0
                 + trace.delivered_bolus)
        for k in range(80):
            total = 0.0
            for j in range(k):
                lag = k * 5.0 - (j * 5.0 + 2.5)
                if lag < curve.dia:
                    total += units[j] * curve.iob_fraction(lag)
            assert trace.iob[k] == total + 0.0, k

    def test_curve_array_methods_match_scalar(self):
        """Every table entry is the curve's float method at its lag."""
        curve = InsulinActivityCurve()
        frac, act, band_start = _iob_tables(curve, 75, 5.0)
        for k in (0, 1, 30, 60, 61, 74):
            for i, j in enumerate(range(band_start[k], k)):
                lag = k * 5.0 - (j * 5.0 + 2.5)
                assert frac[k, i] == curve.iob_fraction(lag)
                assert act[k, i] == curve.activity(lag)
            assert not frac[k, k - band_start[k]:].any()
