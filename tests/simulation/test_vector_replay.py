"""Parity suite for lock-step monitor replay, mining and titration.

The contract under test is the one the lock-step simulation engine set:
``LOCKSTEP_WIDTH`` (like ``workers``) changes wall-clock time, never
semantics.  Replay must be element-wise identical to replaying each trace
alone (a one-column batch, width 1) for every monitor kind — CAWT/CAWOT
rules, DT, MLP, LSTM, Guideline, MPC and a user-defined monitor alike —
across widths and worker counts; the verdicts themselves are pinned by
``test_golden_replay.py``.  Mined robustness samples must equal the
per-trace miner below, and the batched fault-free titration of a cohort
must equal titrating each patient alone (``empirical_isf``) bit for bit.
"""

import math

import numpy as np
import pytest

import repro.parallel
from repro.baselines import GuidelineMonitor, MPCMonitor
from repro.core import (ContextAwareMonitor, aps_rules, cawot_monitor,
                        cawt_monitor, learn_thresholds, mine_rule_samples)
from repro.core.learning import MINING_WINDOW, _trace_spans
from repro.core.monitor import SafetyMonitor
from repro.core.rules import BG_TARGET
from repro.hazards import HazardType
from repro.ml import (LSTMClassifier, LSTMMonitor, MLPClassifier, MLPMonitor,
                      TrainingJob, build_point_dataset, build_window_dataset,
                      run_training_jobs)
from repro.ml.datasets import trace_features
from repro.parallel import iter_equal_length_groups
from repro.simulation import (ContextBatch, PROFILE_CACHE, controller_profile,
                              iter_contexts, replay_campaign,
                              titrate_isf_batch, warm_profiles)
from repro.simulation.batch import empirical_isf
from repro.patients import make_patient, patient_ids
from repro.stl import satisfaction
from tests.conftest import LOCKSTEP_WIDTHS, replay_alone

WORKER_COUNTS = (1, 2)


def reference_alerts(monitor, traces):
    """Per-trace alert flags, each trace replayed alone."""
    return [replay_alone(monitor, trace)[0] for trace in traces]


def observe_groups(monitor, traces):
    """``(alerts, hazards)`` per trace from ``observe_batch`` over each
    lock-step group's ``ContextBatch.from_traces`` stack."""
    results = []
    for group in iter_equal_length_groups(traces):
        alerts, hazards = monitor.observe_batch(
            ContextBatch.from_traces(group))
        results.extend(zip(alerts.T, hazards.T))
    return results


def per_trace_mine(traces, rules=None, bg_target=BG_TARGET,
                   window=MINING_WINDOW):
    """The per-trace miner: the oracle for lock-step mining.

    Evaluates each trace alone through the Table I violation bodies
    (with the learnable predicate switched off by an infinite threshold)
    and reduces the eligible ``mu`` values over the trace's mining
    windows.  Returns ``rule index -> (hazard stats, safe stats)``.
    """
    rules = list(rules) if rules is not None else list(aps_rules())
    out = {rule.index: ([], []) for rule in rules}
    for trace in traces:
        stl_trace = ContextBatch.from_traces([trace]).to_stl_trace()
        hazard_span, safe_stop = _trace_spans(trace, window)
        for rule in rules:
            open_threshold = math.inf if rule.direction == "lt" \
                else -math.inf
            mask = satisfaction(rule.violation_body(bg_target), stl_trace,
                                {rule.param: open_threshold})[:, 0]
            mu = trace.iob if rule.mu_channel == "IOB" else trace.cgm
            spans = []
            if hazard_span is not None and hazard_span[2] == rule.hazard:
                spans.append((0, hazard_span[0], hazard_span[1]))
            if safe_stop > 0:
                spans.append((1, 0, safe_stop))
            for side, start, stop in spans:
                eligible = mu[start:stop][mask[start:stop]]
                if len(eligible):
                    out[rule.index][side].append(float(
                        eligible.min() if rule.direction == "lt"
                        else eligible.max()))
    return out


class RisingStreakMonitor(SafetyMonitor):
    """Stateful user-defined monitor: alerts (H2) after three consecutive
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
        return alerts, np.where(alerts, int(HazardType.H2), 0)


def rising_streak_alerts(trace):
    """:class:`RisingStreakMonitor`'s alerts, one context at a time."""
    alerts, streak = [], 0
    for ctx in iter_contexts(trace):
        streak = streak + 1 if ctx.bg_rate > 0.0 else 0
        alerts.append(streak >= 3)
    return np.array(alerts)


@pytest.fixture(scope="module")
def fast_monitors(tiny_campaign_traces):
    """Every monitor kind with a vectorized observe_batch, plus CAWT."""
    thresholds = learn_thresholds(tiny_campaign_traces).thresholds
    dt, dt_mc = run_training_jobs(
        [TrainingJob.make("dt"), TrainingJob.make("dt", multiclass=True)],
        tiny_campaign_traces)
    mlp = MLPClassifier(max_epochs=3, seed=0).fit(
        *build_point_dataset(tiny_campaign_traces))
    return {
        "CAWT": cawt_monitor(thresholds),
        "CAWOT": cawot_monitor(),
        "Guideline": GuidelineMonitor(),
        "MPC": MPCMonitor(),
        "DT": dt.monitor,
        "DTmc": dt_mc.monitor,
        "MLP": MLPMonitor(mlp),
    }


@pytest.fixture(scope="module")
def nn_monitors(tiny_campaign_traces):
    """The batched-NN kinds: binary and multi-class LSTM, and the
    multi-class MLP (the binary MLP is in ``fast_monitors``)."""
    windows = build_window_dataset(tiny_campaign_traces, k=6)
    windows_mc = build_window_dataset(tiny_campaign_traces, k=6,
                                      multiclass=True)
    lstm = LSTMClassifier(max_epochs=2, seed=0).fit(*windows)
    lstm_mc = LSTMClassifier(n_classes=3, max_epochs=2, seed=0).fit(
        *windows_mc)
    mlp_mc = MLPClassifier(n_classes=3, max_epochs=3, seed=0).fit(
        *build_point_dataset(tiny_campaign_traces, multiclass=True))
    return {
        "LSTM": LSTMMonitor(lstm, k=6),
        "LSTMmc": LSTMMonitor(lstm_mc, k=6, multiclass=True),
        "MLPmc": MLPMonitor(mlp_mc, multiclass=True),
    }


class TestBatchedReplayParity:
    def test_all_monitor_kinds_all_batch_sizes_and_workers(
            self, fast_monitors, tiny_campaign_traces, set_lockstep_width):
        reference = {name: reference_alerts(monitor, tiny_campaign_traces)
                     for name, monitor in fast_monitors.items()}
        for width in LOCKSTEP_WIDTHS:
            set_lockstep_width(width)
            for workers in WORKER_COUNTS:
                batched = replay_campaign(fast_monitors, tiny_campaign_traces,
                                          workers=workers)
                for name in fast_monitors:
                    assert len(batched[name]) == len(tiny_campaign_traces)
                    for a, b in zip(reference[name], batched[name]):
                        assert np.array_equal(a, b), (name, width, workers)

    def test_batched_lstm_parity(self, nn_monitors, tiny_campaign_traces,
                                 set_lockstep_width):
        # every sliding window of a batch classified in stacked row-exact
        # forwards, against each trace replayed alone: alerts at every
        # width x workers, hazard codes at every width, binary and
        # multi-class heads; a trace subset keeps this fast
        traces = list(tiny_campaign_traces[:10])
        reference = {name: [replay_alone(monitor, trace)
                            for trace in traces]
                     for name, monitor in nn_monitors.items()}
        assert any(alerts.any() for alerts, _ in reference["LSTM"])
        assert any((hazards == int(HazardType.H1)).any()
                   for _, hazards in reference["LSTMmc"])
        for width in LOCKSTEP_WIDTHS:
            set_lockstep_width(width)
            for workers in WORKER_COUNTS:
                batched = replay_campaign(nn_monitors, traces,
                                          workers=workers)
                for name in nn_monitors:
                    assert len(batched[name]) == len(traces)
                    for (alerts, _), got in zip(reference[name],
                                                batched[name]):
                        assert np.array_equal(alerts, got), (name, width,
                                                             workers)
            for name, monitor in nn_monitors.items():
                batched = observe_groups(monitor, traces)
                for (alerts, hazards), (got_alerts, got_hazards) in zip(
                        reference[name], batched, strict=True):
                    assert np.array_equal(alerts, got_alerts), (name, width)
                    assert np.array_equal(hazards, got_hazards), (name,
                                                                  width)

    def test_hazard_codes_match_replay_alone(self, fast_monitors,
                                             tiny_campaign_traces,
                                             set_lockstep_width):
        traces = list(tiny_campaign_traces[:12])
        set_lockstep_width(7)
        for name, monitor in fast_monitors.items():
            batched = observe_groups(monitor, traces)
            assert len(batched) == len(traces)
            for trace, (alerts, hazards) in zip(traces, batched):
                ref_alerts, ref_hazards = replay_alone(monitor, trace)
                assert np.array_equal(alerts, ref_alerts), name
                assert np.array_equal(hazards, ref_hazards), name

    def test_non_default_bgt_and_rule_subset(self, tiny_campaign_traces,
                                             set_lockstep_width):
        # both shape the STL rule bodies the batched monitor evaluates
        rule10 = next(rule for rule in aps_rules() if rule.index == 10)
        monitors = {"BGT140": ContextAwareMonitor(bg_target=140.0),
                    "rule10": ContextAwareMonitor(rules=(rule10,))}
        set_lockstep_width(7)
        for name, monitor in monitors.items():
            batched = observe_groups(monitor, tiny_campaign_traces)
            assert any(alerts.any() for alerts, _ in batched), name
            for trace, (alerts, hazards) in zip(tiny_campaign_traces,
                                                batched, strict=True):
                ref_alerts, ref_hazards = replay_alone(monitor, trace)
                assert np.array_equal(alerts, ref_alerts), name
                assert np.array_equal(hazards, ref_hazards), name

    def test_mixed_length_stream_batches(self, fast_monitors,
                                         tiny_campaign_traces,
                                         tiny_fault_free_traces,
                                         set_lockstep_width):
        # campaign (150 steps) and fault-free (60 steps) traces interleave
        # into length-homogeneous groups without reordering the stream
        mixed = (list(tiny_campaign_traces[:5]) + list(tiny_fault_free_traces)
                 + list(tiny_campaign_traces[5:9]))
        set_lockstep_width(4)
        batched = replay_campaign(fast_monitors, mixed)
        for name, monitor in fast_monitors.items():
            for a, b in zip(reference_alerts(monitor, mixed), batched[name]):
                assert np.array_equal(a, b), name

    def test_custom_monitor(self, tiny_campaign_traces, set_lockstep_width):
        monitor = RisingStreakMonitor()
        reference = [rising_streak_alerts(trace)
                     for trace in tiny_campaign_traces]
        assert any(alerts.any() for alerts in reference)
        for width in LOCKSTEP_WIDTHS:
            set_lockstep_width(width)
            batched = replay_campaign({"custom": monitor},
                                      tiny_campaign_traces)
            assert all(np.array_equal(a, b) for a, b in
                       zip(reference, batched["custom"]))

    def test_generator_input_streams(self, fast_monitors,
                                     tiny_campaign_traces):
        batched = replay_campaign(fast_monitors, iter(tiny_campaign_traces))
        for name, monitor in fast_monitors.items():
            reference = reference_alerts(monitor, tiny_campaign_traces)
            assert all(np.array_equal(a, b) for a, b in
                       zip(reference, batched[name]))

    def test_env_batch_size(self, monkeypatch, tiny_campaign_traces):
        """The retired ``REPRO_BATCH_SIZE`` variable changes nothing:
        replay stacks LOCKSTEP_WIDTH traces whatever the environment
        says."""
        widths = []

        class WidthSpy(RisingStreakMonitor):
            def observe_batch(self, batch):
                widths.append(batch.shape[1])
                return super().observe_batch(batch)

        monkeypatch.setenv("REPRO_BATCH_SIZE", "1")
        replay_campaign({"m": WidthSpy()}, tiny_campaign_traces)
        assert max(widths) == repro.parallel.LOCKSTEP_WIDTH
        assert sum(widths) == len(tiny_campaign_traces)


class TestEdgeCases:
    def test_empty_trace_stream(self, fast_monitors):
        out = replay_campaign(fast_monitors, [])
        assert out == {name: [] for name in fast_monitors}

    def test_single_column_batch(self, tiny_campaign_traces):
        trace = tiny_campaign_traces[0]
        batch = ContextBatch.from_traces([trace])
        assert batch.shape == (len(trace), 1)
        alerts, hazards = cawot_monitor().observe_batch(batch)
        # the same stream one cycle at a time through observe
        monitor = cawot_monitor()
        verdicts = [monitor.observe(ctx) for ctx in iter_contexts(trace)]
        assert alerts.any()
        assert alerts[:, 0].tolist() == [v.alert for v in verdicts]
        assert hazards[:, 0].tolist() == [
            0 if v.hazard is None else int(v.hazard) for v in verdicts]

    def test_context_batch_rejects_empty_and_ragged(self,
                                                    tiny_campaign_traces,
                                                    tiny_fault_free_traces):
        with pytest.raises(ValueError, match="zero traces"):
            ContextBatch.from_traces([])
        with pytest.raises(ValueError, match="one length"):
            ContextBatch.from_traces([tiny_campaign_traces[0],
                                      tiny_fault_free_traces[0]])

    def test_invalid_batch_size(self, tiny_campaign_traces,
                                set_lockstep_width):
        set_lockstep_width(0)
        with pytest.raises(ValueError, match="LOCKSTEP_WIDTH"):
            list(iter_equal_length_groups(tiny_campaign_traces))
        with pytest.raises(ValueError, match="LOCKSTEP_WIDTH"):
            replay_campaign({"m": cawot_monitor()}, tiny_campaign_traces)
        with pytest.raises(ValueError, match="LOCKSTEP_WIDTH"):
            mine_rule_samples(tiny_campaign_traces)

    def test_misshapen_observe_batch_fails_loudly(self,
                                                  tiny_campaign_traces):
        class Broken(SafetyMonitor):
            def init_state(self, n_cols):
                return {}

            def observe_batch(self, batch):
                return np.zeros((1, 1), dtype=bool), np.zeros((1, 1), int)

        with pytest.raises(ValueError, match="verdict matrices"):
            replay_campaign({"broken": Broken()}, tiny_campaign_traces)

    def test_equal_length_grouping(self, tiny_campaign_traces,
                                   tiny_fault_free_traces,
                                   set_lockstep_width):
        mixed = (list(tiny_campaign_traces[:3]) + list(tiny_fault_free_traces)
                 + list(tiny_campaign_traces[3:8]))
        set_lockstep_width(2)
        groups = list(iter_equal_length_groups(mixed))
        flat = [trace for group in groups for trace in group]
        assert [id(t) for t in flat] == [id(t) for t in mixed]
        for group in groups:
            assert len(group) <= 2
            assert len({len(t) for t in group}) == 1


class TestContextBatch:
    def test_columns_match_scalar_context_stream(self, tiny_campaign_traces):
        traces = list(tiny_campaign_traces[:4])
        batch = ContextBatch.from_traces(traces)
        for b, trace in enumerate(traces):
            for ctx_col, ctx_ref in zip(batch.iter_column(b),
                                        iter_contexts(trace)):
                assert ctx_col == ctx_ref
            np.testing.assert_array_equal(batch.features[:, :, b],
                                          trace_features(trace))

    def test_channel_views(self, tiny_campaign_traces):
        trace = tiny_campaign_traces[0]
        batch = ContextBatch.from_traces([trace, trace])
        np.testing.assert_array_equal(batch.bg[:, 0], trace.cgm)
        np.testing.assert_array_equal(batch.iob[:, 1], trace.iob)
        np.testing.assert_array_equal(batch.action[:, 0], trace.action)
        np.testing.assert_array_equal(batch.t[:, 1], trace.t)
        assert batch.dt.tolist() == [trace.dt, trace.dt]


class TestBatchedMining:
    def test_mined_samples_identical(self, tiny_campaign_traces,
                                     tiny_fault_free_traces,
                                     set_lockstep_width):
        # mixed lengths exercise the group-boundary path
        traces = list(tiny_campaign_traces) + list(tiny_fault_free_traces)
        oracle = per_trace_mine(traces)
        assert any(len(hazard) for hazard, _ in oracle.values())
        for width in LOCKSTEP_WIDTHS:
            set_lockstep_width(width)
            for samples in mine_rule_samples(traces):
                hazard, safe = oracle[samples.rule.index]
                assert np.array_equal(samples.values, hazard), width
                assert np.array_equal(samples.safe_values, safe), width

    def test_mined_samples_identical_at_non_default_bgt(
            self, tiny_campaign_traces, tiny_fault_free_traces,
            set_lockstep_width):
        traces = list(tiny_campaign_traces) + list(tiny_fault_free_traces)
        oracle = per_trace_mine(traces, bg_target=140.0)
        assert oracle != per_trace_mine(traces)
        set_lockstep_width(7)
        for samples in mine_rule_samples(traces, bg_target=140.0):
            hazard, safe = oracle[samples.rule.index]
            assert np.array_equal(samples.values, hazard)
            assert np.array_equal(samples.safe_values, safe)

    def test_thresholds_byte_identical_with_batch_and_workers(
            self, tiny_campaign_traces, tiny_fault_free_traces,
            set_lockstep_width):
        traces = list(tiny_campaign_traces) + list(tiny_fault_free_traces)
        set_lockstep_width(1)
        reference = learn_thresholds(traces)
        for width in LOCKSTEP_WIDTHS:
            set_lockstep_width(width)
            for workers in WORKER_COUNTS:
                batched = learn_thresholds(traces, workers=workers)
                assert batched.thresholds == reference.thresholds


class TestBatchedTitration:
    @pytest.mark.parametrize("platform", ["glucosym", "t1ds2013"])
    def test_bit_identical_to_scalar_empirical_isf(self, platform):
        """A cohort batch gives each patient the ISF it gets alone."""
        ids = patient_ids(platform)
        patients = [make_patient(platform, pid, target_glucose=120.0)
                    for pid in ids]
        batched = titrate_isf_batch(patients, 120.0)
        scalar = np.array([
            empirical_isf(make_patient(platform, pid, target_glucose=120.0),
                          120.0)
            for pid in ids])
        np.testing.assert_array_equal(batched, scalar)

    def test_empty_cohort(self):
        assert titrate_isf_batch([], 120.0).shape == (0,)

    def test_mixed_model_families_rejected(self):
        patients = [make_patient("glucosym", "A"),
                    make_patient("t1ds2013", "P01")]
        with pytest.raises(ValueError, match="one patient model family"):
            titrate_isf_batch(patients, 120.0)

    def test_t1d_off_target_anchor_rejected(self):
        patient = make_patient("t1ds2013", "P01", target_glucose=110.0)
        with pytest.raises(ValueError, match="target_glucose"):
            titrate_isf_batch([patient], 120.0)

    def test_warm_profiles_matches_serial_titration(self):
        PROFILE_CACHE.clear()
        warmed = warm_profiles("glucosym", ["A", "B", "C"])
        PROFILE_CACHE.clear()
        for pid in ("A", "B", "C"):
            patient = make_patient("glucosym", pid, target_glucose=120.0)
            assert warmed[pid] == controller_profile(patient, 120.0), pid

    def test_warm_profiles_seeds_cache(self):
        PROFILE_CACHE.clear()
        warm_profiles("glucosym", ["A", "B"])
        assert ("glucosym/A", 120.0) in PROFILE_CACHE
        assert ("glucosym/B", 120.0) in PROFILE_CACHE
        # a second call is pure lookups and returns the same profiles
        again = warm_profiles("glucosym", ["A", "B"])
        assert set(again) == {"A", "B"}
