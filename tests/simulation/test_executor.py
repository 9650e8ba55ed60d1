"""Tests for the parallel campaign execution engine.

Trace equality uses the shared ``assert_traces_equal`` fixture from the
session conftest (the same assertion every parity suite uses).
"""

import numpy as np
import pytest

from repro.controllers import ControlAction
from repro.core.context import ContextVector
from repro.core.mitigation import FixedMitigator
from repro.core.monitor import SafetyMonitor
from repro.fi import CampaignConfig, generate_campaign
from repro.hazards import HazardType
from repro.parallel import map_chunks
from repro.simulation import (
    BaselineCache,
    CampaignExecutor,
    CampaignPlan,
    NpzDirectorySink,
    ProfileCache,
    SimRun,
    TraceSink,
    plan_campaign,
    plan_fault_free,
    run_campaign,
    run_fault_free,
)
from tests.conftest import LOCKSTEP_WIDTHS


def small_campaign(n=6):
    scenarios = generate_campaign(CampaignConfig(
        stride=1, init_glucose_values=(100.0, 160.0),
        timing_choices=((5, 4), (10, 6))))
    return scenarios[:n]


class TestPlanning:
    def test_plan_is_patient_major(self):
        scenarios = small_campaign(3)
        plan = plan_campaign("glucosym", ["A", "B"], scenarios, n_steps=20)
        assert len(plan) == 6
        assert [r.patient_id for r in plan.runs] == ["A"] * 3 + ["B"] * 3
        assert [r.label for r in plan.runs[:3]] == [s.label for s in scenarios]

    def test_fault_free_plan(self):
        plan = plan_fault_free("glucosym", ["A"], (100.0, 160.0), n_steps=20)
        assert all(r.fault is None for r in plan.runs)
        assert [r.init_glucose for r in plan.runs] == [100.0, 160.0]

    def test_invalid_n_steps(self):
        with pytest.raises(ValueError):
            CampaignPlan(platform="glucosym", runs=(), n_steps=0)


class TestSharding:
    """A plan is cut into consecutive fixed-size chunks of runs — the
    executor's lock-step batches — by ``map_chunks``."""

    def plan(self, n):
        runs = tuple(SimRun(patient_id="A", init_glucose=120.0,
                            label=f"r{i}") for i in range(n))
        return CampaignPlan(platform="glucosym", runs=runs, n_steps=20)

    @staticmethod
    def chunks(plan, size, workers=1):
        return list(map_chunks(tuple, plan.runs, size, workers))

    def test_chunks_concatenate_to_plan(self):
        plan = self.plan(17)
        for size in (1, 2, 3, 5, 17, 40):
            chunks = self.chunks(plan, size)
            flat = [r for chunk in chunks for r in chunk]
            assert tuple(flat) == plan.runs

    def test_deterministic(self):
        plan = self.plan(23)
        assert self.chunks(plan, 4) == self.chunks(plan, 4) \
            == self.chunks(plan, 4, workers=2)

    def test_never_more_chunks_than_runs(self):
        assert len(self.chunks(self.plan(3), 1)) == 3
        assert len(self.chunks(self.plan(3), 16)) == 1

    def test_invalid_chunk_count(self):
        with pytest.raises(ValueError, match="chunk size"):
            self.chunks(self.plan(3), 0)


class TestParity:
    """The acceptance property: worker count never changes the traces."""

    def test_serial_vs_parallel_identical(self, assert_traces_equal,
                                          set_lockstep_width):
        scenarios = small_campaign()
        plan = plan_campaign("glucosym", ["A", "B"], scenarios, n_steps=25)
        for width in LOCKSTEP_WIDTHS:
            set_lockstep_width(width)
            serial = CampaignExecutor(1).run(plan)
            parallel = CampaignExecutor(2).run(plan)
            assert len(serial) == len(parallel) == len(plan)
            for s, p in zip(serial, parallel):
                assert_traces_equal(s, p)

    def test_worker_count_invariance(self, assert_traces_equal,
                                     set_lockstep_width):
        scenarios = small_campaign(4)
        plan = plan_campaign("glucosym", ["A"], scenarios, n_steps=25)
        set_lockstep_width(1)
        two = CampaignExecutor(2).run(plan)
        three = CampaignExecutor(3).run(plan)
        for a, b in zip(two, three):
            assert_traces_equal(a, b)

    def test_run_campaign_workers_kwarg(self, assert_traces_equal,
                                        set_lockstep_width):
        scenarios = small_campaign(4)
        set_lockstep_width(2)
        serial = run_campaign("glucosym", ["A"], scenarios, n_steps=25)
        parallel = run_campaign("glucosym", ["A"], scenarios, n_steps=25,
                                workers=2)
        for s, p in zip(serial, parallel):
            assert_traces_equal(s, p)

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            CampaignExecutor(0)


class TestRunMeals:
    """SimRun-level meal plans (the scenario-search path) keep parity."""

    def meal_plan(self):
        from repro.patients import Meal
        runs = (
            SimRun(patient_id="A", init_glucose=120.0, label="no-meal"),
            SimRun(patient_id="A", init_glucose=120.0, label="meal-early",
                   meals=(Meal(time=25.0, carbs=60.0),)),
            SimRun(patient_id="A", init_glucose=160.0, label="meal-late",
                   meals=(Meal(time=100.0, carbs=40.0),)),
        )
        return CampaignPlan(platform="glucosym", runs=runs, n_steps=40)

    def test_meals_affect_the_trace(self):
        traces = CampaignExecutor(1).run(self.meal_plan())
        base, early, _ = traces
        assert not np.array_equal(base.true_bg, early.true_bg)
        # carbs raise glucose relative to the meal-free run
        assert early.true_bg[10:].max() > base.true_bg[10:].max()

    def test_meal_parity_across_executors(self, assert_traces_equal,
                                          production_traces,
                                          set_lockstep_width):
        plan = self.meal_plan()
        reference = production_traces(plan)
        for width in LOCKSTEP_WIDTHS:
            set_lockstep_width(width)
            serial = CampaignExecutor(1).run(plan)
            parallel = CampaignExecutor(2).run(plan)
            for s, v, p in zip(reference, serial, parallel):
                assert_traces_equal(s, v)
                assert_traces_equal(s, p)


class ListSink(TraceSink):
    """Collect the streamed traces in a list."""

    def __init__(self):
        self.traces = []

    def write(self, trace):
        self.traces.append(trace)


class TestSinks:
    def test_list_sink_matches_return_value(self, assert_traces_equal):
        scenarios = small_campaign(3)
        traces = run_campaign("glucosym", ["A"], scenarios, n_steps=20)
        sink = ListSink()
        result = run_campaign("glucosym", ["A"], scenarios, n_steps=20,
                              sink=sink)
        assert result is None
        assert len(sink.traces) == 3
        for a, b in zip(traces, sink.traces):
            assert_traces_equal(a, b)

    def test_counting_sink(self, set_lockstep_width):
        """A sink that keeps only counts sees every trace of a pool run."""
        class CountingSink(TraceSink):
            n_traces = n_hazardous = 0

            def write(self, trace):
                self.n_traces += 1
                self.n_hazardous += int(trace.hazardous)

        sink = CountingSink()
        set_lockstep_width(1)
        run_campaign("glucosym", ["A"], small_campaign(3), n_steps=20,
                     sink=sink, workers=2)
        assert sink.n_traces == 3
        assert 0 <= sink.n_hazardous <= 3

    def test_npz_directory_sink(self, tmp_path):
        scenarios = small_campaign(2)
        traces = run_campaign("glucosym", ["A"], scenarios, n_steps=20)
        with NpzDirectorySink(str(tmp_path)) as sink:
            run_campaign("glucosym", ["A"], scenarios, n_steps=20, sink=sink)
        files = sorted(tmp_path.glob("trace_*.npz"))
        assert len(files) == 2
        payload = np.load(files[0])
        assert str(payload["patient_id"]) == "A"
        assert np.array_equal(payload["true_bg"], traces[0].true_bg)
        assert int(payload["fault_start"]) == traces[0].fault.start_step

    def test_npz_sink_refuses_dirty_directory(self, tmp_path):
        run_campaign("glucosym", ["A"], small_campaign(1), n_steps=20,
                     sink=NpzDirectorySink(str(tmp_path)))
        with pytest.raises(FileExistsError, match="intermix"):
            NpzDirectorySink(str(tmp_path))

    def test_serial_sink_streams_one_batch_at_a_time(self, monkeypatch,
                                                     set_lockstep_width):
        """With a sink, the in-process executor simulates LOCKSTEP_WIDTH
        rows at a time and hands each batch over before simulating the
        next, in plan order — a streamed campaign holds one batch, not the
        plan."""
        import repro.simulation.vector as vector
        batches = []
        run_batch = vector.run_batch

        def counting_run_batch(platform, runs, *args, **kwargs):
            batches.append(len(runs))
            return run_batch(platform, runs, *args, **kwargs)

        monkeypatch.setattr(vector, "run_batch", counting_run_batch)
        written = []

        class SpySink(TraceSink):
            def write(self, trace):
                written.append((len(batches), trace.patient_id, trace.label))

        plan = plan_campaign("glucosym", ["A", "B"], small_campaign(6),
                             n_steps=20)
        set_lockstep_width(5)
        CampaignExecutor(1).run(plan, sink=SpySink())
        assert batches == [5, 5, 2]
        assert [n for n, _, _ in written] == [1] * 5 + [2] * 5 + [3] * 2
        assert [(pid, label) for _, pid, label in written] == [
            (run.patient_id, run.label) for run in plan.runs]

    def test_pool_simulates_the_serial_batches(self, monkeypatch, tmp_path,
                                               set_lockstep_width):
        """At workers=2 the forked children simulate exactly the serial
        batches [5, 5, 2] of the test above (recorded through a file: the
        children cannot append to a list in the parent)."""
        import os

        import repro.simulation.vector as vector
        log = tmp_path / "batches.txt"
        run_batch = vector.run_batch

        def logging_run_batch(platform, runs, *args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {plan.runs.index(runs[0])} "
                         f"{len(runs)}\n")
            return run_batch(platform, runs, *args, **kwargs)

        monkeypatch.setattr(vector, "run_batch", logging_run_batch)
        plan = plan_campaign("glucosym", ["A", "B"], small_campaign(6),
                             n_steps=20)
        set_lockstep_width(5)
        traces = CampaignExecutor(2).run(plan)
        records = [tuple(map(int, line.split()))
                   for line in log.read_text().splitlines()]
        assert os.getpid() not in {pid for pid, _, _ in records}
        assert sorted((start, size) for _, start, size in records) \
            == [(0, 5), (5, 5), (10, 2)]
        assert [(t.patient_id, t.label) for t in traces] == [
            (run.patient_id, run.label) for run in plan.runs]

    def test_slow_sink_parallel_order_preserved(self, assert_traces_equal,
                                                set_lockstep_width):
        """A consumer slower than the workers still sees plan order (the
        bounded in-flight window collects chunks in submission order)."""
        import time

        class SlowSink(ListSink):
            def write(self, trace):
                time.sleep(0.01)
                super().write(trace)

        scenarios = small_campaign(6)
        expected = run_campaign("glucosym", ["A"], scenarios, n_steps=20)
        sink = SlowSink()
        set_lockstep_width(2)
        run_campaign("glucosym", ["A"], scenarios, n_steps=20,
                     sink=sink, workers=2)
        assert [t.label for t in sink.traces] == [t.label for t in expected]
        for a, b in zip(expected, sink.traces):
            assert_traces_equal(a, b)


class TestCaches:
    def test_profile_cache(self):
        cache = ProfileCache()
        calls = []

        def compute():
            calls.append(1)
            return {"basal": 1.0}

        first = cache.get_or_compute(("p", 120.0), compute)
        second = cache.get_or_compute(("p", 120.0), compute)
        assert first == second == {"basal": 1.0}
        assert len(calls) == 1
        first["basal"] = 99.0  # returned dicts are copies
        assert cache.get_or_compute(("p", 120.0), compute) == {"basal": 1.0}
        cache.clear()
        assert len(cache) == 0

    def test_baseline_cache_hits(self):
        cache = BaselineCache()
        first = run_fault_free("glucosym", ["A"], (100.0,), n_steps=20,
                               cache=cache)
        assert cache.misses == 1 and cache.hits == 0 and len(cache) == 1
        second = run_fault_free("glucosym", ["A"], (100.0,), n_steps=20,
                                cache=cache)
        assert cache.hits == 1
        assert first[0] is second[0]

    def test_baseline_cache_distinguishes_configs(self):
        cache = BaselineCache()
        run_fault_free("glucosym", ["A"], (100.0,), n_steps=20, cache=cache)
        run_fault_free("glucosym", ["A"], (100.0,), n_steps=25, cache=cache)
        run_fault_free("glucosym", ["A"], (120.0,), n_steps=20, cache=cache)
        assert len(cache) == 3 and cache.hits == 0

    def test_monitored_runs_bypass_cache(self):
        from repro.core import cawot_monitor
        cache = BaselineCache()
        run_fault_free("glucosym", ["A"], (100.0,), n_steps=20, cache=cache,
                       monitor_factory=lambda pid: cawot_monitor())
        assert len(cache) == 0

    def test_cache_none_disables(self):
        traces = run_fault_free("glucosym", ["A"], (100.0,), n_steps=20,
                                cache=None)
        assert len(traces) == 1


class StickyMonitor(SafetyMonitor):
    """Latches permanently after the first high reading of a stream."""

    name = "sticky"

    def __init__(self, threshold=180.0):
        self.threshold = threshold

    def init_state(self, n_cols):
        return {"latched": np.zeros(n_cols, dtype=bool)}

    def observe_batch(self, batch, state=None):
        if state is None:
            state = self.init_state(batch.shape[1])
        latched = state["latched"]
        alerts = np.zeros(batch.shape, dtype=bool)
        for step in range(batch.shape[0]):
            latched |= batch.bg[step] > self.threshold
            alerts[step] = latched
        return alerts, np.where(alerts, int(HazardType.H2), 0)


class TestScenarioOrderIndependence:
    """Regression: a late scenario must not inherit monitor state from an
    earlier injection in the same campaign (every run starts from a fresh
    monitor state)."""

    def scenarios(self):
        # a scenario that drives BG high (latches the sticky monitor and
        # triggers mitigation) followed by a benign one
        all_scenarios = generate_campaign(CampaignConfig(
            init_glucose_values=(120.0,), timing_choices=((0, 30),)))
        harsh = next(s for s in all_scenarios
                     if s.label.startswith("truncate_rate"))
        benign = next(s for s in all_scenarios
                      if s.label.startswith("hold_glucose"))
        return harsh, benign

    def run_one(self, scenario_list, mitigator):
        return run_campaign(
            "glucosym", ["A"], scenario_list,
            monitor_factory=lambda pid: StickyMonitor(threshold=140.0),
            mitigator=mitigator, n_steps=40)

    def test_monitor_and_mitigator_state_reset_between_scenarios(
            self, assert_traces_equal):
        first, second = self.scenarios()
        alone = self.run_one([second], FixedMitigator())[0]
        after_first = self.run_one([first, second], FixedMitigator())[1]
        assert_traces_equal(alone, after_first)

    def test_order_permutation_gives_same_traces(self, assert_traces_equal):
        first, second = self.scenarios()
        forward = self.run_one([first, second], FixedMitigator())
        backward = self.run_one([second, first], FixedMitigator())
        assert forward[0].mitigated.any()
        assert_traces_equal(forward[0], backward[1])
        assert_traces_equal(forward[1], backward[0])

    def test_unreset_monitor_would_diverge(self):
        """The sticky monitor really is stateful: a stream that saw a high
        reading keeps alerting, which is what this regression guards
        against."""
        monitor = StickyMonitor()

        def ctx(bg):
            return ContextVector(t=0.0, bg=bg, bg_rate=0.0, iob=0.0,
                                 iob_rate=0.0, rate=1.0, bolus=0.0,
                                 action=ControlAction.KEEP)

        assert not monitor.observe(ctx(120.0)).alert
        assert monitor.observe(ctx(200.0)).alert
        assert monitor.observe(ctx(120.0)).alert
        monitor.reset()
        assert not monitor.observe(ctx(120.0)).alert
