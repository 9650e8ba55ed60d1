"""End-to-end integration tests: the full pipeline on both platforms.

These exercise the complete story of the paper once per platform: inject a
fault, watch the hazard develop, learn thresholds, detect with CAWT, and
mitigate with Algorithm 1.
"""

import pytest

from repro.core import FixedMitigator, cawt_monitor, learn_thresholds
from repro.fi import CampaignConfig, FaultKind, FaultSpec, FaultTarget, \
    InjectionScenario, generate_campaign
from repro.hazards import HazardType
from repro.metrics import traces_confusion
from repro.simulation import replay_many, run_campaign, run_fault_free


@pytest.fixture(scope="module", params=["glucosym", "t1ds2013"])
def platform_setup(request):
    platform = request.param
    pid = {"glucosym": "B", "t1ds2013": "P01"}[platform]
    config = CampaignConfig(init_glucose_values=(120.0, 200.0),
                            timing_choices=((0, 24), (40, 30), (85, 24)))
    traces = run_campaign(platform, [pid], generate_campaign(config))
    fault_free = run_fault_free(platform, [pid], (80.0, 120.0, 200.0))
    return platform, pid, traces, fault_free


class TestPipeline:
    def test_campaign_produces_both_outcomes(self, platform_setup):
        _, _, traces, _ = platform_setup
        hazards = sum(t.hazardous for t in traces)
        assert 0 < hazards < len(traces)

    def test_fault_free_runs_are_safe(self, platform_setup):
        _, _, _, fault_free = platform_setup
        assert not any(t.hazardous for t in fault_free)

    def test_learning_and_detection(self, platform_setup):
        _, _, traces, fault_free = platform_setup
        thresholds = learn_thresholds(traces + fault_free).thresholds
        monitor = cawt_monitor(thresholds)
        alerts = replay_many(monitor, traces)
        cm = traces_confusion(traces, alerts)
        # in-sample: high fidelity expected
        assert cm.fnr < 0.3
        assert cm.fpr < 0.1
        assert cm.f1 > 0.5

    def test_overdose_attack_story(self, platform_setup):
        """max_rate attack -> H1 hazard -> CAWT alert -> mitigation helps."""
        platform, pid, traces, fault_free = platform_setup
        thresholds = learn_thresholds(traces + fault_free).thresholds
        attack = [InjectionScenario(
            FaultSpec(FaultKind.MAX, FaultTarget.RATE, 20, 30), 120.0)]

        plain, = run_campaign(platform, [pid], attack)
        assert plain.hazardous
        assert plain.hazard_label.first_type == HazardType.H1

        guarded, = run_campaign(
            platform, [pid], attack,
            monitor_factory=lambda _pid: cawt_monitor(thresholds),
            mitigator=FixedMitigator())
        assert guarded.alert.any()
        assert guarded.mitigated.any()
        # mitigation must raise the BG floor substantially
        assert guarded.true_bg.min() > plain.true_bg.min() + 10

    def test_stl_offline_check_agrees_with_monitor(self, platform_setup):
        """The Table I STL formulas evaluated offline flag the same traces."""
        from repro.core import aps_rules
        from repro.stl import satisfied
        _, _, traces, fault_free = platform_setup
        thresholds = learn_thresholds(traces + fault_free).thresholds
        monitor = cawt_monitor(thresholds)
        rules = aps_rules()
        checked = 0
        for trace in traces[:40]:
            alerts = replay_many(monitor, [trace])[0]
            stl_trace = trace.to_stl_trace()
            stl_violated = any(
                not satisfied(rule.formula(), stl_trace, env=thresholds)
                for rule in rules)
            assert stl_violated == bool(alerts.any())
            checked += 1
        assert checked == 40
