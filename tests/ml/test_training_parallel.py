"""Serial/parallel parity of the training-job layer (repro.ml.training).

The acceptance contract of the job API: training with ``workers=N`` must
produce element-wise identical monitors — every tree node, every weight —
to the serial loop, for every N.
"""

import numpy as np
import pytest

from repro.ml import (
    TrainingJob,
    build_point_dataset,
    build_window_dataset,
    monitor_state,
    run_training_jobs,
    select_job_traces,
    train_job,
)
from repro.ml.monitors import DTMonitor, LSTMMonitor, MLPMonitor
from repro.ml.nn import LSTMClassifier, MLPClassifier
from repro.ml.tree import DecisionTreeClassifier
from repro.simulation import (CampaignStoreWriter, TraceDataset,
                              TraceDatasetView, kfold_split)


def assert_states_equal(monitor_a, monitor_b):
    state_a, state_b = monitor_state(monitor_a), monitor_state(monitor_b)
    assert len(state_a) == len(state_b)
    for arr_a, arr_b in zip(state_a, state_b):
        assert np.array_equal(arr_a, arr_b)


def assert_same_monitors(results_a, results_b):
    assert len(results_a) == len(results_b)
    for a, b in zip(results_a, results_b):
        assert a.job == b.job
        assert (a.n_samples, a.n_features) == (b.n_samples, b.n_features)
        assert_states_equal(a.monitor, b.monitor)


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


@pytest.fixture(scope="module")
def campaign_store(tmp_path_factory, tiny_campaign_traces):
    """The shared campaign written once to an on-disk store."""
    root = str(tmp_path_factory.mktemp("training") / "campaign")
    with CampaignStoreWriter(root, "glucosym", len(tiny_campaign_traces[0]),
                             folds=2) as sink:
        for trace in tiny_campaign_traces:
            sink.write(trace)
    return root


def labels(traces):
    return [trace.label for trace in traces]


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


class TestStoreSelection:
    """On a stored campaign the selection stays lazy: an index view that
    loads no shard, with the membership of the in-memory selection."""

    @pytest.mark.parametrize("fold", [0, 1, 2])
    def test_fold_selection_stays_lazy(self, campaign_store,
                                       tiny_campaign_traces, fold):
        dataset = TraceDataset.open(campaign_store)
        job = TrainingJob.make("mlp", fold=fold, folds=3)
        selected = select_job_traces(job, dataset)
        assert isinstance(selected, TraceDatasetView)
        assert dataset.stats.n_loads == 0
        train, _ = kfold_split(tiny_campaign_traces, 3, fold)
        assert labels(selected) == labels(train)

    def test_patient_filter_stays_lazy(self, campaign_store):
        dataset = TraceDataset.open(campaign_store)
        patient = select_job_traces(TrainingJob.make("dt", patient_id="B"),
                                    dataset)
        nobody = select_job_traces(TrainingJob.make("dt", patient_id="Z"),
                                   dataset)
        assert isinstance(patient, TraceDatasetView)
        assert (len(patient), len(nobody)) == (len(dataset), 0)
        assert dataset.stats.n_loads == 0

    def test_patient_and_fold_selection(self, campaign_store,
                                        tiny_campaign_traces):
        dataset = TraceDataset.open(campaign_store)
        job = TrainingJob.make("lstm", patient_id="B", fold=1, folds=4)
        selected = select_job_traces(job, dataset)
        assert isinstance(selected, TraceDatasetView)
        assert dataset.stats.n_loads == 0
        assert labels(selected) == labels(
            select_job_traces(job, tiny_campaign_traces))

    def test_no_selection_is_the_store_itself(self, campaign_store):
        dataset = TraceDataset.open(campaign_store)
        assert select_job_traces(TrainingJob.make("dt"), dataset) is dataset


class TestRunTrainingJobs:
    def test_results_in_job_order(self, small_jobs, serial_results):
        assert [r.job for r in serial_results] == small_jobs

    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_identical_to_serial(self, small_jobs, serial_results,
                                          tiny_campaign_traces, workers):
        parallel = run_training_jobs(small_jobs, tiny_campaign_traces,
                                     workers=workers)
        assert_same_monitors(serial_results, parallel)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_store_backed_identical_to_in_memory(self, small_jobs,
                                                 serial_results,
                                                 campaign_store, workers):
        """A stored campaign trains every job of the grid to the monitors
        the in-memory list trains, serial or forked."""
        dataset = TraceDataset.open(campaign_store, cache_size=4)
        from_store = run_training_jobs(small_jobs, dataset, workers=workers)
        assert_same_monitors(serial_results, from_store)

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
        from repro.simulation import ContextBatch
        batch = ContextBatch.from_traces(tiny_campaign_traces[:1])
        for result in serial_results:
            alerts, hazards = result.monitor.observe_batch(batch)
            assert alerts.shape == hazards.shape == batch.shape

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


class TestTrainJob:
    """``train_job`` builds each kind's classifier as a caller constructing
    it directly would: the DT from its hyperparameters alone, the neural
    models seeded with :meth:`TrainingJob.job_seed`."""

    @pytest.fixture(scope="class")
    def traces(self, tiny_campaign_traces):
        return tiny_campaign_traces[:12]

    def test_dt(self, traces):
        job = TrainingJob.make("dt", max_depth=5)
        X, y = build_point_dataset(traces)
        direct = DTMonitor(DecisionTreeClassifier(max_depth=5).fit(X, y))
        trained = train_job(job, X, y)
        assert (trained.n_samples, trained.n_features) == X.shape
        assert_states_equal(trained.monitor, direct)

    def test_mlp(self, traces):
        job = TrainingJob.make("mlp", multiclass=True, hidden=(12,),
                               max_epochs=2)
        X, y = build_point_dataset(traces, multiclass=True)
        direct = MLPMonitor(MLPClassifier(n_classes=3, seed=job.job_seed(),
                                          hidden=(12,), max_epochs=2
                                          ).fit(X, y), multiclass=True)
        assert_states_equal(train_job(job, X, y).monitor, direct)

    def test_lstm(self, traces):
        job = TrainingJob.make("lstm", window=4, hidden=(6,), max_epochs=1)
        X, y = build_window_dataset(traces, k=4)
        direct = LSTMMonitor(LSTMClassifier(n_classes=2, seed=job.job_seed(),
                                            hidden=(6,), max_epochs=1
                                            ).fit(X, y), k=4)
        trained = train_job(job, X, y)
        assert trained.monitor.k == 4
        assert_states_equal(trained.monitor, direct)

