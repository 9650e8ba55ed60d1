"""Smoke tests for every experiment module (tiny scale, shared cache)."""

import dataclasses
import math

import numpy as np
import pytest

from repro.experiments import (
    ExperimentConfig,
    PRESETS,
    clear_cache,
    loss_curves,
    platform_data,
    run_adversarial_ablation,
    run_fault_free_generalisation,
    run_fig3,
    run_fig7,
    run_fig8,
    run_fig9,
    run_multiclass_ablation,
    run_overhead,
    run_table5,
    run_table6,
    run_table7,
    run_table8,
)
from repro.experiments.data import (baseline_alerts, baseline_monitors,
                                    cawt_cv_replay, cawt_full_thresholds,
                                    ml_baseline_jobs, ml_monitors,
                                    ml_test_alerts, train_test_split)
from repro.simulation import kfold_split


@pytest.fixture(scope="module")
def cfg():
    return ExperimentConfig.preset("smoke")


@pytest.fixture
def replayed(monkeypatch):
    """Every monitor replayed while the test runs: ``replay_campaign`` is
    spied at each ``repro`` module's binding of it, the experiment memos'
    included (``replay_many`` calls it too)."""
    import sys

    from repro.simulation import replay
    original = replay.replay_campaign
    seen = []

    def spy(monitors, *args, **kwargs):
        seen.extend(dict(monitors).values())
        return original(monitors, *args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") \
                and getattr(module, "replay_campaign", None) is original:
            monkeypatch.setattr(module, "replay_campaign", spy)
    return seen


class TestConfig:
    def test_presets_exist(self):
        assert set(PRESETS) == {"smoke", "ci", "small", "medium", "full"}

    def test_full_preset_matches_paper_scale(self):
        full = ExperimentConfig.preset("full")
        assert full.scenarios_per_patient == 882
        assert len(full.patients) == 10
        assert full.folds == 4

    def test_preset_for_t1d(self):
        cfg = ExperimentConfig.preset("smoke", platform="t1ds2013")
        assert cfg.platform == "t1ds2013"
        assert all(p.startswith("P") for p in cfg.patients)

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            ExperimentConfig.preset("nope")

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ExperimentConfig(stride=0)

    def test_empty_cohort_refused(self):
        """An empty cohort simulates nothing, and the hazard fraction and
        Table V then divided by zero."""
        with pytest.raises(ValueError, match="patients"):
            ExperimentConfig(patients=())

    @pytest.mark.parametrize("patients", [("A", "A"), ("A", "B", "A")])
    def test_repeated_patient_refused(self, patients):
        """A repeated patient made the CAWT cross-validation score each of
        its traces once per repeat."""
        with pytest.raises(ValueError, match="patients"):
            ExperimentConfig(patients=patients)

    @pytest.mark.parametrize("change", [
        {"stride": 8}, {"n_steps": 100}, {"patients": ("A", "B")},
        {"patients": ("C", "B", "A")},
        {"platform": "t1ds2013", "patients": ("P01", "P02", "P03")}])
    def test_cache_key_follows_the_simulated_grid(self, change):
        """Configs that simulate different traces, or the same traces in
        another order, never share a memo entry."""
        base = ExperimentConfig()
        assert dataclasses.replace(base, **change).cache_key() \
            != base.cache_key()

    @pytest.mark.parametrize("change", [
        {"folds": 3}, {"workers": 2}, {"mining_window": 6}, {"seed": 1},
        {"ml_epochs": 2}, {"tolerance": 12}])
    def test_cache_key_ignores_what_simulation_never_reads(self, change):
        base = ExperimentConfig()
        assert dataclasses.replace(base, **change).cache_key() \
            == base.cache_key()


class TestData:
    def test_platform_data_cached(self, cfg):
        first = platform_data(cfg)
        second = platform_data(cfg)
        assert first is second

    def test_platform_data_carries_callers_config(self, cfg):
        first = platform_data(cfg)
        other = dataclasses.replace(cfg, folds=3, mining_window=6, workers=2)
        data = platform_data(other)
        assert data.config == other
        assert data.traces is first.traces
        assert platform_data(dataclasses.replace(other)) is data

    def test_trace_partitions(self, cfg):
        data = platform_data(cfg)
        assert sum(len(v) for v in data.by_patient.values()) == len(data.traces)
        assert set(data.by_patient) == set(cfg.patients)

    def test_fault_free_has_seven_initials(self, cfg):
        data = platform_data(cfg)
        assert len(data.fault_free) == 7 * len(cfg.patients)

    @pytest.mark.parametrize("folds", [2, 3])
    def test_train_test_split_is_fold_zero_of_the_callers_folds(self, cfg,
                                                                folds):
        """Configs of one grid share the traces, and each splits them
        with its own ``folds``."""
        data = platform_data(dataclasses.replace(cfg, folds=folds))
        split = train_test_split(data)
        for got, want in zip(split, kfold_split(data.traces, folds, 0)):
            assert isinstance(got, list)
            assert len(got) == len(want)
            assert all(a is b for a, b in zip(got, want))
        assert len(split[0]) + len(split[1]) == len(data.traces)

    def test_cawt_cv_replay_covers_every_trace_once(self, cfg):
        data = platform_data(cfg)
        traces, alerts = cawt_cv_replay(data)
        assert sorted(map(id, traces)) == sorted(map(id, data.traces))
        assert [len(a) for a in alerts] == [len(t) for t in traces]


class TestStoredCampaign:
    """A campaign stored on disk is read lazily by the replay, threshold
    learning and training entry points, which reproduce what the
    experiments compute from the in-memory traces."""

    @pytest.fixture
    def stores(self, cfg, tmp_path):
        from repro.simulation import CampaignStoreWriter, TraceDataset
        data = platform_data(cfg)
        opened = {}
        for kind, traces in (("campaign", data.traces),
                             ("fault_free", data.fault_free)):
            root = str(tmp_path / kind)
            with CampaignStoreWriter(root, cfg.platform, cfg.n_steps,
                                     folds=cfg.folds) as sink:
                for trace in traces:
                    sink.write(trace)
            opened[kind] = TraceDataset.open(root, cache_size=4)
        return opened

    def test_replay_matches_the_baseline_alerts(self, cfg, stores):
        from repro.simulation import replay_campaign
        want = baseline_alerts(platform_data(cfg))
        got = replay_campaign(baseline_monitors(cfg), stores["campaign"])
        assert set(got) == set(want)
        for name, alerts in want.items():
            assert len(got[name]) == len(alerts)
            assert all(np.array_equal(a, b)
                       for a, b in zip(alerts, got[name])), name

    def test_thresholds_match_the_full_data_thresholds(self, cfg, stores):
        import itertools

        from repro.core import learn_thresholds
        data = platform_data(cfg)
        for pid in cfg.patients:
            traces = itertools.chain(stores["campaign"].by_patient(pid),
                                     stores["fault_free"].by_patient(pid))
            learned = learn_thresholds(traces, window=cfg.mining_window)
            assert learned.thresholds == cawt_full_thresholds(data, pid)

    def test_training_matches_the_ml_monitors(self, cfg, stores):
        from repro.ml import monitor_state, run_training_jobs
        want = ml_monitors(platform_data(cfg))
        trained = run_training_jobs(ml_baseline_jobs(cfg),
                                    stores["campaign"])
        assert [t.name for t in trained] == list(want)
        for result in trained:
            state = monitor_state(want[result.name])
            got = monitor_state(result.monitor)
            assert len(got) == len(state)
            assert all(np.array_equal(a, b) for a, b in zip(state, got)), \
                result.name


class TestFig3:
    def test_rows_cover_all_losses(self):
        result = run_fig3()
        assert {row[0] for row in result.rows} == {"mse", "mae", "telex", "tmee"}

    def test_tmee_argmin_tight_positive(self):
        rows = run_fig3().row_dict()
        assert 0.2 < rows["tmee"][1] < 0.8
        assert rows["telex"][1] > rows["tmee"][1]
        assert abs(rows["mse"][1]) < 0.1

    def test_loss_curves_shapes(self):
        r, curves = loss_curves()
        assert len(curves) == 4
        assert all(len(v) == len(r) for v in curves.values())


class TestResilience:
    def test_fig7_rows(self, cfg):
        result = run_fig7(cfg)
        ids = [row[0] for row in result.rows]
        assert ids[-1] == "ALL"
        coverage = result.rows[-1][2]
        assert 0.0 <= coverage <= 1.0

    def test_fig8_coverage_bounds(self, cfg):
        result = run_fig8(cfg)
        for row in result.rows:
            for cell in row[1:]:
                if isinstance(cell, float) and cell == cell:
                    assert 0.0 <= cell <= 1.0

    def test_fig8_max_faults_most_damaging(self, cfg):
        """The paper's headline Fig. 8 observation."""
        rows = run_fig8(cfg).row_dict()
        max_cov = max(rows[k][-1] for k in rows if k.startswith("max_"))
        other = [rows[k][-1] for k in rows if not k.startswith("max_")]
        assert max_cov >= max(other)


class TestMonitorTables:
    def test_table5_monitors_present(self, cfg):
        rows = run_table5(cfg).row_dict()
        assert set(rows) == {"CAWT", "CAWOT", "Guideline", "MPC"}

    def test_table5_metrics_in_range(self, cfg):
        for row in run_table5(cfg).rows:
            _, n_sim, hazard_pct, fpr, fnr, acc, f1 = row
            assert 0 <= fpr <= 1 and 0 <= fnr <= 1
            assert 0 <= acc <= 1 and 0 <= f1 <= 1

    def test_table6_has_sample_and_sim_levels(self, cfg):
        result = run_table6(cfg)
        assert set(result.row_dict()) == {"CAWT", "DT", "MLP", "LSTM"}
        assert len(result.rows[0]) == 9

    def test_cawt_low_fpr(self, cfg):
        """The learned monitor's FPR must be small even at smoke scale."""
        rows = run_table6(cfg).row_dict()
        assert rows["CAWT"][1] < 0.05

    def test_fig9_reaction_rows(self, cfg):
        result = run_fig9(cfg)
        names = set(result.row_dict())
        assert {"CAWT", "CAWOT", "Guideline", "MPC", "DT", "MLP",
                "LSTM"} == names

    def test_table8_has_both_threshold_kinds(self, cfg):
        result = run_table8(cfg)
        kinds = {row[1] for row in result.rows}
        assert "patient-specific" in kinds  # population needs >1 patient

    def test_table7_outcomes(self, cfg):
        result = run_table7(cfg)
        rows = result.row_dict()
        assert set(rows) == {"CAWT", "DT", "MLP", "MPC"}
        for row in result.rows:
            assert row[2] >= 0  # new hazards
            assert row[3] >= 0  # avg risk


def _assert_rows_identical(a, b):
    """Element-wise row equality, treating NaN == NaN (a metric undefined
    serially must be undefined in parallel too)."""
    assert len(a) == len(b)
    for row_a, row_b in zip(a, b):
        assert len(row_a) == len(row_b)
        for x, y in zip(row_a, row_b):
            if isinstance(x, float) and isinstance(y, float) \
                    and math.isnan(x) and math.isnan(y):
                continue
            assert x == y


class TestWorkerParity:
    """Acceptance contract of the parallel layers: experiments driven with
    ``workers=4`` reproduce the serial Table VI/VIII metrics exactly —
    training jobs, per-fold threshold fits and replay included."""

    def test_table6_metrics_identical_across_worker_counts(self, cfg,
                                                           monkeypatch):
        import repro.experiments.data as data_module
        serial = run_table6(cfg)
        # drop the trained-monitor cache so the parallel run actually
        # retrains (simulated traces stay shared — they have their own
        # parity suite)
        data_module._ML_CACHE.clear()
        fit_workers = []
        train = data_module.run_training_jobs

        def spy(*args, **kwargs):
            fit_workers.append(kwargs["workers"])
            return train(*args, **kwargs)

        monkeypatch.setattr(data_module, "run_training_jobs", spy)
        parallel = run_table6(dataclasses.replace(cfg, workers=4))
        assert fit_workers == [4]  # the parity below compares two fits
        _assert_rows_identical(serial.rows, parallel.rows)

    def test_table8_metrics_identical_across_worker_counts(self, cfg):
        serial = run_table8(cfg)
        parallel = run_table8(dataclasses.replace(cfg, workers=4))
        _assert_rows_identical(serial.rows, parallel.rows)


class TestMemoKeys:
    """Each experiment memo answers only for the config fields its value
    reads, whatever ran before it in the process."""

    def test_seed_gets_its_own_models(self, cfg):
        from repro.ml.training import monitor_state
        seed0 = ml_monitors(platform_data(cfg))["MLP"]
        seed1 = ml_monitors(platform_data(
            dataclasses.replace(cfg, seed=1)))["MLP"]
        assert seed1 is not seed0
        assert any(not np.array_equal(a, b) for a, b in
                   zip(monitor_state(seed0), monitor_state(seed1)))

    def test_lstm_window_gets_its_own_lstm(self, cfg):
        assert ml_monitors(platform_data(cfg))["LSTM"].k == cfg.lstm_window
        other = dataclasses.replace(cfg, lstm_window=4)
        assert ml_monitors(platform_data(other))["LSTM"].k == 4

    def test_table5_rows_do_not_depend_on_earlier_configs(self, cfg):
        three = dataclasses.replace(cfg, folds=3)
        clear_cache()
        run_table5(cfg)
        after_two = run_table5(three).text()
        clear_cache()
        assert run_table5(three).text() == after_two


class TestReplayMemo:
    """Tables V/VI replay the shared monitor sets once; Fig. 9 and the
    multi-class ablation reuse their alerts."""

    def test_fig9_replays_no_baseline_or_ml_monitor(self, cfg, replayed):
        run_table5(cfg)
        run_table6(cfg)
        del replayed[:]
        run_fig9(cfg)
        # only the CAWT cross-validation still replays
        assert {m.name for m in replayed} == {"CAWT"}

    def test_multiclass_replays_only_its_multiclass_head(self, cfg,
                                                         replayed):
        clear_cache()
        run_table6(cfg)
        del replayed[:]
        run_multiclass_ablation(cfg)
        multiclass = ml_monitors(platform_data(cfg), multiclass=True)
        assert sorted(map(id, replayed)) == sorted(
            map(id, multiclass.values()))

    def test_text_same_as_after_clear_cache(self, cfg):
        stages = (run_table5, run_table6, run_fig9, run_multiclass_ablation)
        in_order = [stage(cfg).text() for stage in stages]
        for stage, text in zip(stages, in_order):
            clear_cache()
            assert stage(cfg).text() == text, stage.__name__

    def test_memoised_alerts_are_read_only(self, cfg):
        data = platform_data(cfg)
        for alert_map in (baseline_alerts(data), ml_test_alerts(data)):
            for alerts in alert_map.values():
                with pytest.raises(ValueError, match="read-only"):
                    alerts[0][0] = True

    def test_clear_cache_forces_fresh_replay(self, cfg, replayed):
        first = baseline_alerts(platform_data(cfg))
        clear_cache()
        del replayed[:]
        second = baseline_alerts(platform_data(cfg))
        assert {m.name for m in replayed} == {"CAWOT", "Guideline", "MPC"}
        assert second["MPC"][0] is not first["MPC"][0]

    def test_ml_cache_clear_forces_fresh_replay(self, cfg, replayed):
        import repro.experiments.data as data_module
        first = ml_test_alerts(platform_data(cfg))
        data_module._ML_CACHE.clear()
        del replayed[:]
        second = ml_test_alerts(platform_data(cfg))
        retrained = ml_monitors(platform_data(cfg))
        assert sorted(map(id, replayed)) == sorted(
            map(id, retrained.values()))
        assert second["LSTM"][0] is not first["LSTM"][0]


class TestSearchExperiment:
    def test_rows_and_ratio(self, cfg):
        from repro.experiments import run_search
        result = run_search(cfg)
        assert [r[0] for r in result.rows] == list(cfg.patients) + ["ALL"]
        for row in result.rows:
            pid, g_sims, g_haz, g_rate, s_sims, s_haz, s_rate, ratio = row
            assert 0 <= g_haz <= g_sims and 0 <= s_haz <= s_sims
            assert ratio == pytest.approx(
                round(s_rate / g_rate if g_rate else float("inf"), 2),
                abs=0.05)
        # the subsystem's headline claim, at smoke scale with slack:
        # adaptive search must out-discover the fixed grid
        assert result.rows[-1][-1] > 1.0
        assert any("best hazard" in note for note in result.notes)

    def test_deterministic_rows(self, cfg):
        from repro.experiments import run_search
        assert run_search(cfg).rows == run_search(cfg).rows


class TestDiscussion:
    def test_adversarial_beats_fault_free(self, cfg):
        rows = {row[0]: row for row in run_adversarial_ablation(cfg).rows}
        assert rows["adversarial"][4] >= rows["fault-free"][4]  # F1

    def test_multiclass_rows(self, cfg):
        result = run_multiclass_ablation(cfg)
        assert len(result.rows) == 6  # 3 monitors x 2 heads

    def test_fault_free_generalisation(self, cfg):
        result = run_fault_free_generalisation(cfg)
        rows = result.row_dict()
        assert "CAWT" in rows
        for row in result.rows:
            assert 0.0 <= row[1] <= 1.0

    def test_overhead_positive(self, cfg):
        result = run_overhead(cfg)
        for row in result.rows:
            assert row[1] > 0

    def test_result_text_renders(self, cfg):
        text = run_table5(cfg).text()
        assert "Table V" in text and "paper" in text
