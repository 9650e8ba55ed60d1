"""Parity and edge-case tests for lock-step mitigated closed-loop runs.

The acceptance property mirrors the plain vector suite: a mitigated
campaign at any ``LOCKSTEP_WIDTH`` must be bit-identical to the same
campaign at the production width — for all three mitigator families, on
both patient platforms, across every fault kind — including the feedback
the correction injects into later cycles (IOB, glucose, the controller's
own state).  ``test_golden.py`` pins the mitigated traces themselves.
"""

import numpy as np
import pytest

from repro.baselines import GuidelineMonitor
from repro.controllers import ControlAction
from repro.core import (FixedMitigator, PredictiveMitigator,
                        ProportionalMitigator, SafetyMonitor, cawot_monitor)
from repro.fi import (CampaignConfig, FaultKind, FaultSpec, FaultTarget,
                      generate_campaign)
from repro.hazards import HazardType
from repro.simulation import (CampaignExecutor, CampaignPlan, plan_campaign,
                              run_batch, run_campaign)
from repro.simulation.executor import SimRun
from repro.simulation.features import ContextBatch
from tests.conftest import LOCKSTEP_WIDTHS
from tiny_grid import tiny_campaign_scenarios


# the two benchmarked strategy families: Algorithm 1 (fixed H2 dose) and
# the KnowSafe-style rule+prediction strategy
FAMILIES = [FixedMitigator, PredictiveMitigator]
#: every built-in family, for the acceptance grid
ALL_FAMILIES = FAMILIES + [ProportionalMitigator]


def small_campaign(n=6):
    scenarios = generate_campaign(CampaignConfig(
        stride=1, init_glucose_values=(90.0, 160.0),
        timing_choices=((0, 6), (8, 10))))
    return scenarios[:n]


@pytest.fixture
def parity(production_traces, set_lockstep_width, assert_traces_equal):
    """``parity(platform, patients, scenarios, n_steps=..., **kwargs)``
    asserts run_campaign equals the production-width run at every width
    and returns the production traces."""
    def check(platform, patients, scenarios, n_steps, widths=LOCKSTEP_WIDTHS,
              workers=None, **kwargs):
        reference = production_traces(
            plan_campaign(platform, patients, scenarios, n_steps=n_steps),
            **kwargs)
        for width in widths:
            set_lockstep_width(width)
            vector = run_campaign(platform, patients, scenarios,
                                  n_steps=n_steps, workers=workers, **kwargs)
            assert len(vector) == len(reference)
            for s, v in zip(reference, vector):
                assert_traces_equal(s, v)
        return reference
    return check


class RisingStreakMonitor(SafetyMonitor):
    """Stateful custom monitor: alerts (H1) after three consecutive
    rising-BG cycles, its streak carried per column."""

    name = "rising-streak"

    def init_state(self, n_cols):
        return {"streak": np.zeros(n_cols, dtype=np.intp)}

    def observe_batch(self, batch, state=None):
        if state is None:
            state = self.init_state(batch.shape[1])
        streak = state["streak"]
        alerts = np.zeros(batch.shape, dtype=bool)
        for step in range(batch.shape[0]):
            streak[:] = np.where(batch.bg_rate[step] > 0.0, streak + 1, 0)
            alerts[step] = streak >= 3
        return alerts, np.where(alerts, int(HazardType.H1), 0)


class TestMitigatedCampaignParity:
    @pytest.mark.parametrize("platform,patients", [
        ("glucosym", ["A", "B"]),
        ("t1ds2013", ["P01", "P02"]),
    ])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_both_platforms_both_families(self, platform, patients, family,
                                          parity):
        reference = parity(platform, patients, small_campaign(6),
                           monitor_factory=lambda pid: cawot_monitor(),
                           mitigator=family(), n_steps=30)
        assert len(reference) == 12
        assert any(t.mitigated.any() for t in reference)

    @pytest.mark.parametrize("platform,pid,init", [
        ("glucosym", "A", 170.0),
        ("t1ds2013", "P01", 190.0),
    ])
    @pytest.mark.parametrize("family", ALL_FAMILIES + [None])
    def test_all_fault_kinds_all_targets(self, platform, pid, init, family,
                                         assert_traces_equal,
                                         production_traces,
                                         set_lockstep_width):
        """Every manipulation type on every target, monitored (family
        None) or mitigated, stays exact at every width — the mitigation
        acceptance grid."""
        runs = []
        for kind in FaultKind:
            for target in FaultTarget:
                value = {FaultKind.ADD: 60.0, FaultKind.SUB: 40.0,
                         FaultKind.SCALE: 0.5}.get(kind, 0.0)
                fault = FaultSpec(kind=kind, target=target, start_step=3,
                                  duration_steps=12, value=value)
                runs.append(SimRun(patient_id=pid, init_glucose=init,
                                   label=fault.label, fault=fault))
        plan = CampaignPlan(platform=platform, runs=tuple(runs), n_steps=30)
        factory = lambda _pid: cawot_monitor()  # noqa: E731
        mitigator = family() if family is not None else None
        reference = production_traces(plan, monitor_factory=factory,
                                     mitigator=mitigator)
        assert any(t.alert.any() for t in reference)
        assert any(t.mitigated.any() for t in reference) \
            == (mitigator is not None)
        for width in LOCKSTEP_WIDTHS:
            set_lockstep_width(width)
            vector = CampaignExecutor(1).run(plan, monitor_factory=factory,
                                          mitigator=mitigator)
            assert len(vector) == len(FaultKind) * len(FaultTarget)
            for s, v in zip(reference, vector):
                assert_traces_equal(s, v)

    def test_proportional_family_and_ragged_batches(self, parity):
        parity("glucosym", ["A"], small_campaign(7),
               widths=(2, 3, 7, 50),
               monitor_factory=lambda pid: cawot_monitor(),
               mitigator=ProportionalMitigator(), n_steps=30)

    def test_batch_times_workers(self, parity):
        """workers and the width compose on mitigated campaigns too."""
        parity("glucosym", ["A", "B"], small_campaign(6), workers=2,
               monitor_factory=lambda pid: cawot_monitor(),
               mitigator=FixedMitigator(), n_steps=25)

    def test_stateful_monitor_rows_stay_apart(self, parity):
        """Guideline's per-column excursion timers must not leak across
        rows."""
        reference = parity("glucosym", ["A", "B"], small_campaign(5),
                           monitor_factory=lambda pid: GuidelineMonitor(),
                           mitigator=FixedMitigator(), n_steps=35)
        assert any(t.mitigated.any() for t in reference)

    @pytest.mark.parametrize("kind", ("MPC", "LSTM"))
    @pytest.mark.parametrize("family", [FixedMitigator, None])
    def test_mpc_and_lstm_monitored_and_mitigated(self, parity,
                                                  all_monitor_kinds, kind,
                                                  family):
        """The two kinds with the richest per-row state (an insulin chain,
        a k-cycle window) drive the live loop exactly."""
        monitor = all_monitor_kinds[kind]
        mitigator = family() if family is not None else None
        # starts at 120 and 200 mg/dL: MPC's prediction leaves the range
        reference = parity("glucosym", ["A", "B"],
                           tiny_campaign_scenarios()[:6],
                           monitor_factory=lambda pid: monitor,
                           mitigator=mitigator, n_steps=35)
        assert any(t.alert.any() for t in reference)
        assert any(t.mitigated.any() for t in reference) \
            == (mitigator is not None)

    def test_monitor_without_mitigator(self, parity):
        """Alert channels are recorded and the command passes through."""
        reference = parity("glucosym", ["A"], small_campaign(4),
                           monitor_factory=lambda pid: cawot_monitor(),
                           n_steps=30)
        assert any(t.alert.any() for t in reference)
        assert not any(t.mitigated.any() for t in reference)
        for t in reference:
            assert np.array_equal(t.final_rate, t.cmd_rate)

    def test_mitigator_without_monitor_never_fires(self, assert_traces_equal):
        """Algorithm 1 acts on a monitor verdict only: no monitor, no
        correction."""
        scenarios = small_campaign(3)
        plain = run_campaign("glucosym", ["A"], scenarios, n_steps=25)
        with_mit = run_campaign("glucosym", ["A"], scenarios, n_steps=25,
                                mitigator=FixedMitigator())
        for s, v in zip(plain, with_mit):
            assert_traces_equal(s, v)


class TestMitigatorEdgeCases:
    def test_custom_stateful_monitor_with_mitigation(self, parity):
        """Custom monitor (per-column state) + built-in mitigator compose
        exactly."""
        reference = parity("glucosym", ["A"], small_campaign(4),
                           monitor_factory=lambda pid: RisingStreakMonitor(),
                           mitigator=FixedMitigator(), n_steps=35)
        assert any(t.mitigated.any() for t in reference)

    def test_proportional_bounds(self):
        """0 <= rate <= max_rate always; H1 and non-alert rows exact."""
        mit = ProportionalMitigator(isf=40.0, bg_target=120.0, max_rate=3.0,
                                    horizon_h=1.5)
        n = 6
        bg = np.array([60.0, 120.0, 200.0, 400.0, 180.0, 90.0])
        iob = np.array([0.0, 0.0, 5.0, 0.0, 1.0, 0.2])
        rate = np.full(n, 1.2)
        bolus = np.zeros(n)
        alerts = np.array([True, True, True, True, True, False])
        hazards = np.array([1, 2, 2, 2, 2, 0])
        tick = ContextBatch.from_tick(
            0.0, bg, np.zeros(n), iob, np.zeros(n), rate, bolus,
            np.full(n, int(ControlAction.KEEP)), 5.0)
        out_rate, out_bolus = mit.correct_mask(alerts, hazards, tick)
        assert np.all(out_rate >= 0.0) and np.all(out_rate <= 3.0)
        assert out_rate[0] == 0.0          # H1 suspends
        assert out_rate[1] == 0.0          # at target: nothing needed
        assert out_rate[2] == 0.0          # IOB already covers the excess
        assert out_rate[3] == 3.0          # clipped at max_rate
        assert out_rate[5] == rate[5]      # non-alert passes through
        assert np.all(out_bolus[alerts] == 0.0)
        assert out_bolus[5] == bolus[5]

    def test_predictive_suspend_rule(self):
        """The knowledge rule vetoes insulin on a predicted drop, even
        for H2 alerts; otherwise the forecast sizes the dose."""
        mit = PredictiveMitigator(isf=50.0, bg_target=120.0,
                                  horizon_min=30.0, max_rate=5.0,
                                  suspend_bg=90.0)
        n = 4
        bg = np.array([200.0, 200.0, 300.0, 150.0])
        bg_rate = np.array([-4.0, 0.5, 0.0, 0.0])  # row 0 forecasts 80 < 90
        tick = ContextBatch.from_tick(
            0.0, bg, bg_rate, np.zeros(n), np.zeros(n), np.full(n, 1.0),
            np.zeros(n), np.full(n, int(ControlAction.KEEP)), 5.0)
        alerts = np.array([True, True, True, False])
        hazards = np.array([2, 2, 2, 0])
        rate, bolus = mit.correct_mask(alerts, hazards, tick)
        assert rate[0] == 0.0              # suspend rule fired on H2
        assert 0.0 < rate[1] <= 5.0
        assert rate[2] == 5.0              # large excess clips at max_rate
        assert rate[3] == 1.0              # non-alert passes through
        assert np.all(bolus == 0.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PredictiveMitigator(horizon_min=0.0)
        with pytest.raises(ValueError):
            PredictiveMitigator(isf=-1.0)
        with pytest.raises(ValueError):
            ProportionalMitigator(horizon_h=0.0)

    def test_broken_correct_mask_override_fails_loudly(self):
        class Broken(FixedMitigator):
            def correct_mask(self, alerts, hazards, tick):
                return None  # violates the columnar contract

        runs = [SimRun(patient_id="A", init_glucose=170.0, label="x")]
        with pytest.raises(ValueError, match="correct_mask"):
            run_batch("glucosym", runs, n_steps=30,
                      monitor_factory=lambda pid: cawot_monitor(),
                      mitigator=Broken())
