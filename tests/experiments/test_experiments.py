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
from repro.experiments.data import baseline_alerts, ml_monitors, ml_test_alerts


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


class TestDatasetStore:
    """The run-once / replay-many workflow behind ``dataset_dir``."""

    def test_store_backed_data_matches_in_memory(self, cfg, tmp_path,
                                                 assert_traces_equal):
        from repro.simulation import TraceDataset
        mem = platform_data(cfg)
        disk_cfg = dataclasses.replace(cfg, dataset_dir=str(tmp_path))
        disk = platform_data(disk_cfg)
        assert isinstance(disk.traces, TraceDataset)
        assert len(disk.traces) == len(mem.traces)
        for a, b in zip(mem.traces, disk.traces):
            assert_traces_equal(a, b)
        for a, b in zip(mem.fault_free, disk.fault_free):
            assert_traces_equal(a, b)
        root = tmp_path / disk_cfg.dataset_slug()
        assert (root / "campaign" / "manifest.json").exists()
        assert (root / "fault_free" / "manifest.json").exists()

    def test_replay_many_does_not_resimulate(self, cfg, tmp_path,
                                             monkeypatch):
        import repro.experiments.data as data_module
        disk_cfg = dataclasses.replace(cfg, dataset_dir=str(tmp_path))
        first = platform_data(disk_cfg)
        # a fresh invocation (cache dropped) must reopen, not resimulate
        data_module._DATA_CACHE.clear()

        def boom(*args, **kwargs):
            raise AssertionError("resimulated an already-stored campaign")

        monkeypatch.setattr(data_module, "run_campaign", boom)
        monkeypatch.setattr(data_module, "run_fault_free", boom)
        second = platform_data(disk_cfg)
        assert len(second.traces) == len(first.traces)

    def test_mismatched_directory_is_an_error(self, cfg, tmp_path):
        """A directory holding a *valid* store of some other campaign must
        be refused, not silently served or overwritten."""
        import json

        import repro.experiments.data as data_module
        from repro.simulation import CampaignStoreError, campaign_fingerprint
        disk_cfg = dataclasses.replace(cfg, dataset_dir=str(tmp_path))
        platform_data(disk_cfg)
        data_module._DATA_CACHE.clear()
        # rewrite one scenario label, keeping the manifest self-consistent:
        # the store is intact, it just describes a different campaign
        manifest = (tmp_path / disk_cfg.dataset_slug() / "campaign"
                    / "manifest.json")
        doc = json.loads(manifest.read_text())
        doc["traces"][0]["label"] = "not-the-campaign-you-want"
        cells = [(e["patient_id"], e["label"], e["dt"],
                  None if e["fault"] is None else
                  (e["fault"]["kind"], e["fault"]["target"],
                   e["fault"]["start_step"], e["fault"]["duration_steps"],
                   e["fault"]["value"]))
                 for e in doc["traces"]]
        doc["fingerprint"] = campaign_fingerprint(doc["platform"],
                                                  doc["n_steps"], cells)
        manifest.write_text(json.dumps(doc))
        with pytest.raises(CampaignStoreError, match="different campaign"):
            platform_data(disk_cfg)

    def test_store_identical_at_any_worker_count(self, cfg, tmp_path,
                                                 set_lockstep_width):
        """The one-box route for a big campaign, ``dataset_dir`` with
        ``workers=N``, writes the same files at any worker count."""
        set_lockstep_width(2)  # several chunks, so the pool forks
        stores = {}
        for workers in (1, 2):
            root = tmp_path / f"workers{workers}"
            platform_data(dataclasses.replace(cfg, dataset_dir=str(root),
                                              workers=workers))
            stores[workers] = {
                path.relative_to(root): path.read_bytes()
                for path in sorted(root.rglob("*")) if path.is_file()}
        assert len(stores[1]) == 2 + len(platform_data(cfg).traces) \
            + len(platform_data(cfg).fault_free)
        assert stores[2] == stores[1]

    def test_dataset_slug_distinguishes_grids(self, cfg):
        other = dataclasses.replace(cfg, stride=cfg.stride + 1)
        assert cfg.dataset_slug() != other.dataset_slug()

    def test_train_test_split_stays_lazy_on_store(self, cfg, tmp_path,
                                                  assert_traces_equal):
        from repro.experiments.data import train_test_split
        from repro.simulation import TraceDatasetView
        disk_cfg = dataclasses.replace(cfg, dataset_dir=str(tmp_path))
        mem = platform_data(cfg)
        disk = platform_data(disk_cfg)
        train_mem, test_mem = train_test_split(mem)
        train_disk, test_disk = train_test_split(disk)
        assert isinstance(train_disk, TraceDatasetView)
        assert isinstance(test_disk, TraceDatasetView)
        assert len(train_disk) == len(train_mem)
        for a, b in zip(train_mem, train_disk):
            assert_traces_equal(a, b)
        for a, b in zip(test_mem, test_disk):
            assert_traces_equal(a, b)

    def test_folds_mismatch_is_an_error(self, cfg, tmp_path):
        import repro.experiments.data as data_module
        from repro.simulation import CampaignStoreError
        disk_cfg = dataclasses.replace(cfg, dataset_dir=str(tmp_path))
        platform_data(disk_cfg)
        data_module._DATA_CACHE.clear()
        stale = dataclasses.replace(disk_cfg, folds=disk_cfg.folds + 1)
        with pytest.raises(CampaignStoreError, match="folds"):
            platform_data(stale)

    def test_folds_mismatch_on_cache_hit_is_an_error(self, cfg, tmp_path):
        from repro.simulation import CampaignStoreError
        disk_cfg = dataclasses.replace(cfg, dataset_dir=str(tmp_path))
        platform_data(disk_cfg)
        stale = dataclasses.replace(disk_cfg, folds=disk_cfg.folds + 1)
        with pytest.raises(CampaignStoreError, match="folds"):
            platform_data(stale)

    def test_dataset_slug_distinguishes_patient_sets(self):
        a = ExperimentConfig(patients=("A", "B"))
        b = ExperimentConfig(patients=("C", "D"))
        assert a.dataset_slug() != b.dataset_slug()
        assert a.dataset_slug() == ExperimentConfig(
            patients=("A", "B")).dataset_slug()


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
