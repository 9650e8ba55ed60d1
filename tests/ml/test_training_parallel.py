"""Serial/parallel parity of the training-job layer (repro.ml.training).

The acceptance contract of the job API: training with ``workers=N`` must
produce element-wise identical monitors — every tree node, every weight —
to the serial loop, for every N, with or without memory-mapped datasets.
"""

import numpy as np
import pytest

from repro.ml import (
    TrainingJob,
    job_dataset,
    monitor_state,
    run_training_jobs,
    select_job_traces,
    train_job,
)
from repro.simulation import kfold_split


def assert_same_monitors(results_a, results_b):
    assert len(results_a) == len(results_b)
    for a, b in zip(results_a, results_b):
        assert a.job == b.job
        assert (a.n_samples, a.n_features) == (b.n_samples, b.n_features)
        state_a, state_b = monitor_state(a.monitor), monitor_state(b.monitor)
        assert len(state_a) == len(state_b)
        for arr_a, arr_b in zip(state_a, state_b):
            assert np.array_equal(arr_a, arr_b), a.name


@pytest.fixture(scope="module")
def small_jobs():
    """A cheap but representative grid: every kind, two folds (tiny
    network widths keep the suite fast; parity is width-independent)."""
    jobs = []
    for fold in (0, 1):
        common = dict(fold=fold, folds=2)
        jobs.append(TrainingJob.make("dt", max_depth=5, **common))
        jobs.append(TrainingJob.make("mlp", hidden=(12,), max_epochs=2,
                                     **common))
        jobs.append(TrainingJob.make("lstm", hidden=(6,), max_epochs=1,
                                     **common))
    return jobs


@pytest.fixture(scope="module")
def serial_results(small_jobs, tiny_campaign_traces):
    return run_training_jobs(small_jobs, tiny_campaign_traces, workers=1)


class TestTrainingJob:
    def test_make_normalises_hyperparams(self):
        a = TrainingJob.make("mlp", max_epochs=3, hidden=(8,))
        b = TrainingJob.make("MLP", hidden=(8,), max_epochs=3)
        assert a == b
        assert a.job_seed() == b.job_seed()

    def test_seed_depends_on_identity_only(self):
        base = TrainingJob.make("mlp", fold=0, folds=4)
        assert base.job_seed() == TrainingJob.make("mlp", fold=0,
                                                   folds=4).job_seed()
        assert base.job_seed() != TrainingJob.make("mlp", fold=1,
                                                   folds=4).job_seed()
        assert base.job_seed() != TrainingJob.make("lstm", fold=0,
                                                   folds=4).job_seed()
        assert base.job_seed() != TrainingJob.make(
            "mlp", fold=0, folds=4, seed=1).job_seed()

    def test_dt_and_mlp_share_a_dataset(self):
        dt = TrainingJob.make("dt", fold=0, folds=2)
        mlp = TrainingJob.make("mlp", fold=0, folds=2)
        lstm = TrainingJob.make("lstm", fold=0, folds=2)
        assert dt.dataset_key() == mlp.dataset_key()
        assert dt.dataset_key() != lstm.dataset_key()

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            TrainingJob.make("svm")
        with pytest.raises(ValueError, match="folds"):
            TrainingJob.make("dt", fold=0)
        with pytest.raises(ValueError, match="fold"):
            TrainingJob.make("dt", fold=3, folds=2)
        with pytest.raises(ValueError, match="window"):
            TrainingJob.make("lstm", window=0)


class TestTraceSelection:
    def test_fold_selection_matches_kfold_split(self, tiny_campaign_traces):
        job = TrainingJob.make("dt", fold=1, folds=3)
        selected = select_job_traces(job, tiny_campaign_traces)
        train, _ = kfold_split(tiny_campaign_traces, 3, 1)
        assert list(selected) == train

    def test_patient_filter(self, tiny_campaign_traces):
        job = TrainingJob.make("dt", patient_id="B")
        assert len(select_job_traces(job, tiny_campaign_traces)) == \
            len(tiny_campaign_traces)  # the tiny campaign is all patient B
        nobody = TrainingJob.make("dt", patient_id="Z")
        assert len(select_job_traces(nobody, tiny_campaign_traces)) == 0

    def test_no_fold_returns_everything(self, tiny_campaign_traces):
        job = TrainingJob.make("dt")
        assert list(select_job_traces(job, tiny_campaign_traces)) == \
            list(tiny_campaign_traces)


class TestRunTrainingJobs:
    def test_results_in_job_order(self, small_jobs, serial_results):
        assert [r.job for r in serial_results] == small_jobs

    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_identical_to_serial(self, small_jobs, serial_results,
                                          tiny_campaign_traces, workers):
        parallel = run_training_jobs(small_jobs, tiny_campaign_traces,
                                     workers=workers)
        assert_same_monitors(serial_results, parallel)

    def test_mmap_root_identical_to_in_memory(self, small_jobs,
                                              serial_results,
                                              tiny_campaign_traces,
                                              tmp_path):
        mapped = run_training_jobs(small_jobs, tiny_campaign_traces,
                                   workers=2, mmap_root=str(tmp_path))
        assert_same_monitors(serial_results, mapped)
        # dt+mlp share one point dataset per fold, lstm adds a window one
        slugs = {job.dataset_slug() for job in small_jobs}
        assert len(slugs) == 4
        for slug in slugs:
            assert (tmp_path / slug / "X.npy").exists()

    def test_training_from_mmap_dataset_directly(self, tiny_campaign_traces,
                                                 tmp_path):
        job = TrainingJob.make("dt", max_depth=4)
        X, y = job_dataset(job, tiny_campaign_traces,
                           mmap_root=str(tmp_path))
        assert isinstance(X, np.memmap)
        trained = train_job(job, X, y)
        in_memory = train_job(job, *job_dataset(job, tiny_campaign_traces))
        assert_same_monitors([trained], [in_memory])

    def test_different_folds_train_different_monitors(self, serial_results):
        by_job = {r.job: r for r in serial_results}
        a = by_job[TrainingJob.make("dt", fold=0, folds=2, max_depth=5)]
        b = by_job[TrainingJob.make("dt", fold=1, folds=2, max_depth=5)]
        states = (monitor_state(a.monitor), monitor_state(b.monitor))
        assert any(not np.array_equal(x, y) for x, y in zip(*states)) \
            or len(states[0]) != len(states[1])

    def test_empty_job_list(self, tiny_campaign_traces):
        assert run_training_jobs([], tiny_campaign_traces) == []

    def test_monitors_replay_cleanly(self, serial_results,
                                     tiny_campaign_traces):
        from repro.simulation import replay_monitor
        trace = tiny_campaign_traces[0]
        for result in serial_results:
            alerts, hazards = replay_monitor(result.monitor, trace)
            assert alerts.shape == (len(trace),)
            assert hazards.shape == (len(trace),)

    def test_lazy_dataset_jobs(self, tiny_campaign_traces, tmp_path,
                               assert_traces_equal):
        """Jobs select lazily (index views) on store-backed campaigns and
        train to the same monitors as on the in-memory list."""
        from repro.simulation import CampaignStoreWriter, TraceDataset
        root = str(tmp_path / "store")
        with CampaignStoreWriter(root, "glucosym", 150, folds=2) as sink:
            for trace in tiny_campaign_traces:
                sink.write(trace)
        dataset = TraceDataset.open(root, cache_size=4)
        job = TrainingJob.make("dt", fold=0, folds=2, max_depth=4)
        lazy_view = select_job_traces(job, dataset)
        eager = select_job_traces(job, list(tiny_campaign_traces))
        assert len(lazy_view) == len(eager)
        for a, b in zip(eager, lazy_view):
            assert_traces_equal(a, b)
        from_store = run_training_jobs([job], dataset)
        from_memory = run_training_jobs([job], list(tiny_campaign_traces))
        assert_same_monitors(from_store, from_memory)
