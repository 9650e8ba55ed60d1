"""Tests for the on-disk campaign dataset store.

Covers the acceptance properties of the store: lossless write/read
roundtrip of every trace field, manifest/fingerprint integrity, explicit
errors for corrupted / missing / shuffled shards and schema mismatches,
and the bounded-memory guarantee of the lazy reader.
"""

import dataclasses
import json
import os

import numpy as np
import pytest

from tiny_grid import (TINY_PATIENT, TINY_PLATFORM,
                       tiny_campaign_scenarios)
from repro.core import cawot_monitor, learn_thresholds, mine_rule_samples
from repro.ml import build_point_dataset, build_window_dataset
from repro.simulation import (
    CampaignStoreError,
    CampaignStoreWriter,
    TraceDataset,
    TraceDatasetView,
    open_dataset,
    plan_campaign,
    plan_fingerprint,
    replay_campaign,
    run_campaign,
    trace_from_arrays,
    trace_to_arrays,
)
from repro.simulation.store import manifest_path


@pytest.fixture()
def store_dir(tmp_path, tiny_campaign_traces):
    """A complete on-disk copy of the shared tiny campaign."""
    directory = str(tmp_path / "campaign")
    with CampaignStoreWriter(directory, TINY_PLATFORM,
                             len(tiny_campaign_traces[0]),
                             folds=4) as sink:
        for trace in tiny_campaign_traces:
            sink.write(trace)
    return directory


def rewrite_manifest(directory, mutate):
    with open(manifest_path(directory)) as fh:
        manifest = json.load(fh)
    mutate(manifest)
    with open(manifest_path(directory), "w") as fh:
        json.dump(manifest, fh)


def _without(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


#: structurally broken manifests the reader must refuse with its typed error
MALFORMED_MANIFESTS = {
    "list": lambda m: [m],
    "no-traces": lambda m: _without(m, "traces"),
    "no-platform": lambda m: _without(m, "platform"),
    "no-fingerprint": lambda m: _without(m, "fingerprint"),
    "traces-not-list": lambda m: dict(
        m, traces={str(i): e for i, e in enumerate(m["traces"])}),
    "entry-without-file": lambda m: dict(
        m, traces=[_without(m["traces"][0], "file")] + m["traces"][1:]),
    "entry-without-patient": lambda m: dict(
        m, traces=[_without(m["traces"][0], "patient_id")] + m["traces"][1:]),
    "entry-fault-without-fields": lambda m: dict(
        m, traces=[dict(m["traces"][0], fault={})] + m["traces"][1:]),
}


class TestDatasetViewSubset:
    def test_subset_of_view_is_relative(self, store_dir,
                                        tiny_campaign_traces,
                                        assert_traces_equal):
        dataset = TraceDataset.open(store_dir)
        view = dataset.subset(range(10, 20))
        sub = view.subset([0, 3, 5])
        assert isinstance(sub, TraceDatasetView)
        assert len(sub) == 3
        for got, want_index in zip(sub, (10, 13, 15)):
            assert_traces_equal(got, tiny_campaign_traces[want_index])


class TestTraceSerialization:
    def test_arrays_roundtrip_every_field(self, tiny_campaign_traces,
                                          assert_traces_equal):
        for trace in tiny_campaign_traces[:4]:
            rebuilt = trace_from_arrays(trace_to_arrays(trace))
            assert_traces_equal(trace, rebuilt)
            for f in dataclasses.fields(trace):
                v1, v2 = getattr(trace, f.name), getattr(rebuilt, f.name)
                if isinstance(v1, np.ndarray):
                    assert v1.dtype == v2.dtype, f.name

    def test_fault_free_trace_roundtrips_without_fault(self,
                                                       tiny_fault_free_traces,
                                                       assert_traces_equal):
        trace = tiny_fault_free_traces[0]
        rebuilt = trace_from_arrays(trace_to_arrays(trace))
        assert rebuilt.fault is None
        assert_traces_equal(trace, rebuilt)


class TestFingerprint:
    def plan(self, **kwargs):
        defaults = dict(platform=TINY_PLATFORM, patient_ids=[TINY_PATIENT],
                        scenarios=tiny_campaign_scenarios(), n_steps=150)
        defaults.update(kwargs)
        return plan_campaign(defaults["platform"], defaults["patient_ids"],
                             defaults["scenarios"],
                             n_steps=defaults["n_steps"])

    def test_deterministic(self):
        assert plan_fingerprint(self.plan()) == plan_fingerprint(self.plan())

    def test_sensitive_to_every_identity_axis(self):
        base = plan_fingerprint(self.plan())
        assert plan_fingerprint(self.plan(platform="t1ds2013")) != base
        assert plan_fingerprint(self.plan(patient_ids=["A"])) != base
        assert plan_fingerprint(self.plan(n_steps=99)) != base
        fewer = tiny_campaign_scenarios()[:-1]
        assert plan_fingerprint(self.plan(scenarios=fewer)) != base

    def test_store_fingerprint_matches_plan(self, store_dir):
        dataset = TraceDataset.open(store_dir)
        assert dataset.fingerprint == plan_fingerprint(self.plan())


class TestWriter:
    def test_manifest_contents(self, store_dir, tiny_campaign_traces):
        with open(manifest_path(store_dir)) as fh:
            manifest = json.load(fh)
        from repro.simulation import SCHEMA_VERSION
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert manifest["platform"] == TINY_PLATFORM
        assert manifest["n_traces"] == len(tiny_campaign_traces)
        assert len(manifest["traces"]) == len(tiny_campaign_traces)
        assert manifest["shard_format"] == "npz"
        entry = manifest["traces"][0]
        assert set(entry) == {"file", "patient_id", "label", "dt", "fold",
                              "fault"}
        assert os.path.exists(os.path.join(store_dir, entry["file"]))

    def test_fold_keys_are_round_robin_within_patient(self, store_dir):
        dataset = TraceDataset.open(store_dir)
        folds = [dataset.entry(i)["fold"] for i in range(len(dataset))]
        assert folds == [i % 4 for i in range(len(dataset))]

    def test_refuses_directory_with_manifest(self, store_dir):
        with pytest.raises(CampaignStoreError, match="manifest"):
            CampaignStoreWriter(store_dir, TINY_PLATFORM, 150)

    def test_write_after_close_raises(self, tmp_path, tiny_campaign_traces):
        writer = CampaignStoreWriter(str(tmp_path / "w"), TINY_PLATFORM, 150)
        writer.close()
        with pytest.raises(CampaignStoreError, match="closed"):
            writer.write(tiny_campaign_traces[0])

    def test_rejects_wrong_platform_or_length(self, tmp_path,
                                              tiny_campaign_traces):
        trace = tiny_campaign_traces[0]
        with CampaignStoreWriter(str(tmp_path / "p"), "t1ds2013",
                                 len(trace)) as writer:
            with pytest.raises(CampaignStoreError, match="platform"):
                writer.write(trace)
        with CampaignStoreWriter(str(tmp_path / "n"), TINY_PLATFORM,
                                 len(trace) + 1) as writer:
            with pytest.raises(CampaignStoreError, match="steps"):
                writer.write(trace)

    def test_invalid_folds(self, tmp_path):
        with pytest.raises(ValueError, match="folds"):
            CampaignStoreWriter(str(tmp_path / "f"), TINY_PLATFORM, 150,
                                folds=1)

    def test_exception_in_with_body_aborts_without_manifest(
            self, tmp_path, tiny_campaign_traces):
        """A crashed half-written campaign must never look complete."""
        directory = str(tmp_path / "crashed")
        with pytest.raises(RuntimeError, match="simulator died"):
            with CampaignStoreWriter(directory, TINY_PLATFORM,
                                     len(tiny_campaign_traces[0])) as sink:
                sink.write(tiny_campaign_traces[0])
                sink.write(tiny_campaign_traces[1])
                raise RuntimeError("simulator died")
        assert not os.path.exists(manifest_path(directory))
        with pytest.raises(CampaignStoreError, match="manifest"):
            TraceDataset.open(directory)

    def test_shards_without_manifest_reported_explicitly(
            self, tmp_path, tiny_campaign_traces):
        """Rewriting over an interrupted write names the real problem."""
        directory = str(tmp_path / "interrupted")
        writer = CampaignStoreWriter(directory, TINY_PLATFORM,
                                     len(tiny_campaign_traces[0]))
        writer.write(tiny_campaign_traces[0])
        writer.abort()
        with pytest.raises(CampaignStoreError, match="interrupted"):
            CampaignStoreWriter(directory, TINY_PLATFORM,
                                len(tiny_campaign_traces[0]))


class TestRoundtrip:
    """Write a campaign through the store, read it back lazily, and assert
    element-wise equality of every trace field (the acceptance property)."""

    def test_every_trace_field_identical(self, store_dir,
                                         tiny_campaign_traces,
                                         assert_traces_equal):
        dataset = TraceDataset.open(store_dir)
        assert len(dataset) == len(tiny_campaign_traces)
        for original, reread in zip(tiny_campaign_traces, dataset):
            assert_traces_equal(original, reread)

    def test_random_access_and_negative_indexing(self, store_dir,
                                                 tiny_campaign_traces,
                                                 assert_traces_equal):
        dataset = TraceDataset.open(store_dir)
        assert_traces_equal(tiny_campaign_traces[7], dataset[7])
        assert_traces_equal(tiny_campaign_traces[-1], dataset[-1])
        with pytest.raises(IndexError):
            dataset[len(dataset)]

    def test_slice_and_subset_views(self, store_dir, tiny_campaign_traces,
                                    assert_traces_equal):
        dataset = TraceDataset.open(store_dir)
        view = dataset[10:14]
        assert isinstance(view, TraceDatasetView)
        assert len(view) == 4
        for original, reread in zip(tiny_campaign_traces[10:14], view):
            assert_traces_equal(original, reread)
        assert len(dataset.by_patient(TINY_PATIENT)) == len(dataset)
        assert dataset.patient_ids == (TINY_PATIENT,)

    def test_fold_split_matches_manifest(self, store_dir):
        dataset = TraceDataset.open(store_dir)
        train, test = dataset.fold_split(0)
        assert len(train) + len(test) == len(dataset)
        assert len(test) == len(dataset.indices(fold=0))
        with pytest.raises(ValueError):
            dataset.fold_split(99)

    def test_open_dataset_alias(self, store_dir):
        assert len(open_dataset(store_dir)) > 0

    def test_feeds_ml_dataset_builders_identically(self, store_dir,
                                                   tiny_campaign_traces):
        dataset = TraceDataset.open(store_dir, cache_size=2)
        X_mem, y_mem = build_point_dataset(tiny_campaign_traces)
        X_ds, y_ds = build_point_dataset(dataset)
        assert np.array_equal(X_mem, X_ds) and np.array_equal(y_mem, y_ds)
        Xw_mem, yw_mem = build_window_dataset(tiny_campaign_traces, k=6)
        Xw_ds, yw_ds = build_window_dataset(dataset, k=6)
        assert np.array_equal(Xw_mem, Xw_ds) and np.array_equal(yw_mem, yw_ds)

    def test_feeds_threshold_mining_identically(self, store_dir,
                                                tiny_campaign_traces):
        dataset = TraceDataset.open(store_dir, cache_size=2)
        mem = mine_rule_samples(tiny_campaign_traces)
        lazy = mine_rule_samples(dataset)
        for a, b in zip(mem, lazy):
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.safe_values, b.safe_values)
        assert (learn_thresholds(tiny_campaign_traces).thresholds
                == learn_thresholds(dataset).thresholds)

    def test_feeds_replay_identically(self, store_dir, tiny_campaign_traces):
        dataset = TraceDataset.open(store_dir, cache_size=2)
        monitor = cawot_monitor()
        mem = replay_campaign({"CAWOT": monitor},
                              tiny_campaign_traces)["CAWOT"]
        lazy = replay_campaign({"CAWOT": monitor}, dataset)["CAWOT"]
        assert all(np.array_equal(a, b) for a, b in zip(mem, lazy))
        # serial replay streams the dataset within its cache window
        assert dataset.stats.max_resident <= 2


class TestBoundedMemory:
    """The lazy reader never holds more than its cache window of traces."""

    def test_full_iteration_stays_within_window(self, store_dir):
        dataset = TraceDataset.open(store_dir, cache_size=3)
        for _ in dataset:
            assert len(dataset._cache) <= 3
        assert dataset.stats.max_resident <= 3
        assert dataset.stats.n_loads == len(dataset)
        assert dataset.stats.evictions == len(dataset) - 3

    def test_repeated_passes_reload_but_stay_bounded(self, store_dir):
        dataset = TraceDataset.open(store_dir, cache_size=4)
        for _ in range(2):
            for _ in dataset:
                pass
        assert dataset.stats.n_loads == 2 * len(dataset)
        assert dataset.stats.max_resident <= 4

    def test_hot_access_hits_cache(self, store_dir):
        dataset = TraceDataset.open(store_dir, cache_size=4)
        dataset[5]
        dataset[5]
        assert dataset.stats.n_loads == 1
        assert dataset.stats.cache_hits == 1

    def test_views_share_the_bounded_cache(self, store_dir):
        dataset = TraceDataset.open(store_dir, cache_size=2)
        view = dataset.by_patient(TINY_PATIENT)
        for _ in view:
            pass
        assert view.stats is dataset.stats
        assert dataset.stats.max_resident <= 2

    def test_invalid_cache_size(self, store_dir):
        with pytest.raises(ValueError, match="cache_size"):
            TraceDataset.open(store_dir, cache_size=0)


class TestErrorPaths:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CampaignStoreError, match="manifest"):
            TraceDataset.open(str(tmp_path / "nowhere"))

    @pytest.mark.parametrize("malform", list(MALFORMED_MANIFESTS.values()),
                             ids=list(MALFORMED_MANIFESTS))
    def test_malformed_manifest(self, store_dir, malform):
        with open(manifest_path(store_dir)) as fh:
            manifest = json.load(fh)
        with open(manifest_path(store_dir), "w") as fh:
            json.dump(malform(manifest), fh)
        with pytest.raises(CampaignStoreError, match="manifest"):
            TraceDataset.open(store_dir)[0]

    def test_unknown_shard_format_rejected(self, store_dir):
        """An old uncompressed npy store is refused, not misread."""
        rewrite_manifest(store_dir, lambda m: m.update(shard_format="npy"))
        with pytest.raises(CampaignStoreError, match="shard format"):
            TraceDataset.open(store_dir)

    def test_manifest_without_shard_format_reads_as_npz(
            self, store_dir, tiny_campaign_traces, assert_traces_equal):
        rewrite_manifest(store_dir, lambda m: m.pop("shard_format"))
        assert_traces_equal(TraceDataset.open(store_dir)[0],
                            tiny_campaign_traces[0])

    def test_unparsable_manifest(self, store_dir):
        with open(manifest_path(store_dir), "w") as fh:
            fh.write("{not json")
        with pytest.raises(CampaignStoreError, match="unreadable"):
            TraceDataset.open(store_dir)

    def test_schema_version_mismatch(self, store_dir):
        rewrite_manifest(store_dir,
                         lambda m: m.update(schema_version=99))
        with pytest.raises(CampaignStoreError, match="schema version"):
            TraceDataset.open(store_dir)

    def test_tampered_manifest_breaks_fingerprint(self, store_dir):
        def tamper(manifest):
            manifest["traces"][3]["label"] = "something-else"
        rewrite_manifest(store_dir, tamper)
        with pytest.raises(CampaignStoreError, match="fingerprint"):
            TraceDataset.open(store_dir)

    def test_entry_count_mismatch(self, store_dir):
        rewrite_manifest(store_dir, lambda m: m.update(n_traces=3))
        with pytest.raises(CampaignStoreError, match="entries"):
            TraceDataset.open(store_dir)

    def test_missing_shard(self, store_dir):
        dataset = TraceDataset.open(store_dir)
        os.remove(os.path.join(store_dir, dataset.entry(2)["file"]))
        dataset[1]  # other shards still load
        with pytest.raises(CampaignStoreError, match="missing shard"):
            dataset[2]

    def test_corrupted_shard(self, store_dir):
        dataset = TraceDataset.open(store_dir)
        path = os.path.join(store_dir, dataset.entry(4)["file"])
        with open(path, "wb") as fh:
            fh.write(b"\x00garbage\x00" * 32)
        with pytest.raises(CampaignStoreError, match="corrupted shard"):
            dataset[4]

    def test_truncated_shard(self, store_dir):
        dataset = TraceDataset.open(store_dir)
        shard = os.path.join(store_dir, dataset.entry(1)["file"])
        data = open(shard, "rb").read()
        with open(shard, "wb") as fh:
            fh.write(data[:-200])
        with pytest.raises(CampaignStoreError, match="corrupted"):
            dataset[1]

    def test_shard_of_another_length_detected(self, tmp_path):
        """A shard copied in from a longer campaign over the same grid
        matches its entry's patient and label but not the step count."""
        scenarios = tiny_campaign_scenarios()[:2]
        stores = {}
        for n_steps in (30, 40):
            stores[n_steps] = str(tmp_path / f"n{n_steps}")
            with CampaignStoreWriter(stores[n_steps], TINY_PLATFORM,
                                     n_steps) as sink:
                run_campaign(TINY_PLATFORM, [TINY_PATIENT], scenarios,
                             n_steps=n_steps, sink=sink)
        dataset = TraceDataset.open(stores[30])
        shard = dataset.entry(0)["file"]
        with open(os.path.join(stores[40], shard), "rb") as fh:
            data = fh.read()
        with open(os.path.join(stores[30], shard), "wb") as fh:
            fh.write(data)
        dataset[1]  # the untouched shard still loads
        with pytest.raises(CampaignStoreError, match="40 steps"):
            dataset[0]

    def test_fold_split_requires_fold_assignments(self, tmp_path,
                                                  tiny_campaign_traces):
        directory = str(tmp_path / "nofolds")
        with CampaignStoreWriter(directory, TINY_PLATFORM,
                                 len(tiny_campaign_traces[0])) as sink:
            sink.write(tiny_campaign_traces[0])
        dataset = TraceDataset.open(directory)
        with pytest.raises(CampaignStoreError, match="fold assignments"):
            dataset.fold_split(0)

    def test_shuffled_shards_detected(self, store_dir):
        dataset = TraceDataset.open(store_dir)
        a = os.path.join(store_dir, dataset.entry(0)["file"])
        b = os.path.join(store_dir, dataset.entry(1)["file"])
        tmp = a + ".swap"
        os.rename(a, tmp)
        os.rename(b, a)
        os.rename(tmp, b)
        with pytest.raises(CampaignStoreError, match="manifest expects"):
            dataset[0]
