"""Cross-cutting property-based tests on system-level invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.parallel
from repro.baselines import GuidelineMonitor, MPCMonitor
from repro.controllers import ControlAction, InsulinActivityCurve
from repro.core import (FixedMitigator, PredictiveMitigator,
                        ProportionalMitigator, cawot_monitor)
from repro.fi import (FaultKind, FaultSpec, FaultTarget, VARIABLE_RANGES,
                      magnitude_bounds)
from repro.hazards import label_hazards, risk
from repro.patients import IVPColumns, Meal, glucosym_patient
from repro.patients.base import UU_PER_UNIT
from repro.patients.kernels import ivp_init_state, ivp_rk4_advance
from repro.simulation import CampaignExecutor, CampaignPlan, SimRun
from repro.simulation.vector import _classify
from tests.conftest import PRODUCTION_WIDTH, FaultProbe, \
    _assert_traces_equal, commanded_run

commands = st.lists(st.floats(min_value=-5, max_value=50, allow_nan=False),
                    min_size=1, max_size=12)


class TestPumpProperties:
    @given(commands, commands)
    @settings(max_examples=40, deadline=None)
    def test_pump_output_always_valid(self, rates, boluses):
        """Whatever the final command, the engine's pump delivers a basal
        in [0, 10] U/h on the 0.05 U/h grid and a bolus in [0, 10] U."""
        boluses = (boluses * len(rates))[:len(rates)]
        trace = commanded_run("glucosym", "B", rates, boluses)
        actual = trace.delivered_rate
        assert ((0.0 <= actual) & (actual <= 10.0)).all()
        # quantized to the increment grid
        steps = actual / 0.05
        assert (abs(steps - np.round(steps)) < 1e-6).all()
        np.testing.assert_array_equal(trace.delivered_bolus,
                                      np.clip(boluses, 0.0, 10.0))

    @given(st.lists(st.floats(min_value=0, max_value=10, allow_nan=False),
                    min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_quantization_never_rounds_up(self, rates):
        actual = commanded_run("glucosym", "B", rates).delivered_rate
        assert (actual <= np.asarray(rates) + 1e-9).all()
        assert (actual > np.asarray(rates) - 0.05 - 1e-9).all()


class TestIOBProperties:
    @given(st.floats(min_value=1, max_value=299, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_iob_fraction_bounded(self, minutes):
        curve = InsulinActivityCurve(dia=300, peak=75)
        assert 0.0 <= curve.iob_fraction(minutes) <= 1.0
        assert curve.activity(minutes) >= 0.0


class TestFaultProperties:
    @given(st.sampled_from(list(FaultKind)),
           st.sampled_from(list(FaultTarget)),
           st.floats(min_value=0, max_value=500, allow_nan=False),
           st.floats(min_value=0, max_value=500, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_corrupted_value_within_acceptable_range(self, kind, target,
                                                     value, held):
        """The engine's fault masks keep every corrupted value in range
        (cycle 0 latches *held*, the fault corrupts cycle 1)."""
        spec = FaultSpec(kind=kind, target=target, start_step=1,
                         duration_steps=1,
                         value=0.5 if kind is FaultKind.SCALE else 10.0)
        probe = FaultProbe(spec)
        lo, hi = VARIABLE_RANGES[target]
        probe.corrupt(min(max(held, lo), hi), 0)
        result = probe.corrupt(min(max(value, lo), hi), 1)
        assert lo <= result <= hi


class TestRiskProperties:
    @given(st.lists(st.floats(min_value=20, max_value=600, allow_nan=False),
                    min_size=13, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_labeling_types_consistent(self, bg):
        label = label_hazards(np.asarray(bg))
        assert ((label.hazard_type > 0) == label.hazardous).all()
        if label.any_hazard:
            assert label.hazardous[label.first_hazard]
            assert not label.hazardous[:label.first_hazard].any()

    @given(st.floats(min_value=20, max_value=110, allow_nan=False),
           st.floats(min_value=0.1, max_value=50, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_hypo_risk_monotone(self, bg, delta):
        """Lower glucose on the hypo branch is always riskier."""
        lower = max(bg - delta, 15.0)
        assert risk(lower) >= risk(bg) - 1e-9


class TestActionProperties:
    @given(st.floats(min_value=0, max_value=10, allow_nan=False),
           st.floats(min_value=0, max_value=5, allow_nan=False),
           st.floats(min_value=0.1, max_value=3, allow_nan=False))
    @settings(max_examples=150, deadline=None)
    def test_classification_total_and_consistent(self, rate, bolus, reference):
        action = ControlAction(int(_classify(
            np.array([rate]), np.array([bolus]), np.array([reference]))[0]))
        if bolus > 0:
            assert action == ControlAction.INCREASE
        elif rate <= 0.01:
            assert action == ControlAction.STOP


class TestPatientEnergyBalance:
    @given(st.floats(min_value=80, max_value=200, allow_nan=False))
    @settings(max_examples=10, deadline=None)
    def test_quasi_steady_init_holds_briefly(self, init_bg):
        """The initial state is near-stationary under its holding basal."""
        patient = glucosym_patient("B")
        cols = IVPColumns.from_params([patient.params])
        x = ivp_init_state(cols, [init_bg])
        holding = patient.basal_rate(init_bg) * UU_PER_UNIT / 60.0
        for _ in range(5):  # one 5-minute cycle of 1-minute RK4 steps
            x = ivp_rk4_advance(cols, x, 1.0, holding)
        assert abs(x[3, 0] - init_bg) < 2.0


MONITORS = {"cawot": cawot_monitor, "guideline": GuidelineMonitor,
            "mpc24": lambda: MPCMonitor(horizon_steps=24)}
MITIGATORS = {"fixed": FixedMitigator, "proportional": ProportionalMitigator,
              "predictive": PredictiveMitigator}
N_STEPS = 30


@st.composite
def sim_runs(draw, patients):
    kind = draw(st.sampled_from(list(FaultKind)))
    target = draw(st.sampled_from(list(FaultTarget)))
    bounds = magnitude_bounds(kind, target)
    value = 0.0 if bounds is None else draw(st.floats(*bounds))
    fault = draw(st.none() | st.builds(
        FaultSpec, st.just(kind), st.just(target),
        st.integers(0, N_STEPS - 1), st.integers(1, 40), st.just(value)))
    meals = draw(st.lists(st.builds(
        Meal, st.floats(0.0, 5.0 * N_STEPS),
        st.floats(0.0, 80.0, allow_subnormal=False)), max_size=2))
    return SimRun(draw(st.sampled_from(patients)),
                  draw(st.floats(40.0, 400.0)), "drawn", fault, tuple(meals))


class TestWidthInvariance:
    @given(st.data())
    @settings(max_examples=8, deadline=None)
    def test_traces_identical_at_every_width(self, data):
        """A run's trace does not depend on the lock-step width: widths 1,
        7 and the production width give byte-identical traces."""
        platform, patients = data.draw(st.sampled_from(
            [("glucosym", ("A", "J")), ("t1ds2013", ("P01", "P04"))]))
        runs = data.draw(st.lists(sim_runs(patients), min_size=1,
                                  max_size=7))
        monitor = data.draw(st.sampled_from([None, *MONITORS]))
        mitigator = None if monitor is None else \
            data.draw(st.sampled_from([None, *MITIGATORS]))
        plan = CampaignPlan(platform, tuple(runs), n_steps=N_STEPS)
        traces = []
        for width in (1, 7, PRODUCTION_WIDTH):
            repro.parallel.LOCKSTEP_WIDTH = width
            try:
                traces.append(CampaignExecutor(1).run(
                    plan, monitor_factory=None if monitor is None
                    else lambda _pid: MONITORS[monitor](),
                    mitigator=None if mitigator is None
                    else MITIGATORS[mitigator]()))
            finally:
                repro.parallel.LOCKSTEP_WIDTH = PRODUCTION_WIDTH
        for other in traces[1:]:
            for a, b in zip(traces[0], other):
                _assert_traces_equal(a, b)
