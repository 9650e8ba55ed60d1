"""Tests for the on-disk campaign dataset store.

Covers the acceptance properties of the store: lossless write/read
roundtrip of every trace field, manifest/fingerprint integrity, explicit
errors for corrupted / missing / shuffled shards and schema mismatches,
typed errors for any damaged manifest or shard bytes, the same files at
any worker count, and the bounded-memory guarantee of the lazy reader.
"""

import dataclasses
import hashlib
import io
import json
import os
import shutil
import struct
import tempfile
import threading
import zipfile
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tiny_grid import (TINY_PATIENT, TINY_PLATFORM,
                       tiny_campaign_scenarios)
from repro.core import cawot_monitor, learn_thresholds, mine_rule_samples
from repro.fi import FaultKind, FaultSpec, FaultTarget
from repro.ml import build_point_dataset, build_window_dataset
from repro.simulation import (
    CampaignStoreError,
    CampaignStoreWriter,
    NpzDirectorySink,
    SimulationTrace,
    TRACE_COLUMN_DTYPES,
    TraceDataset,
    TraceDatasetView,
    kfold_split,
    plan_campaign,
    plan_fingerprint,
    replay_campaign,
    run_campaign,
    run_fault_free,
    trace_from_arrays,
    trace_to_arrays,
)
from repro.simulation.store import _read_shard, iter_trace_ticks, manifest_path
from tests.conftest import LOCKSTEP_WIDTHS


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


def _with_first_entry(manifest, entry):
    return dict(manifest, traces=[entry] + manifest["traces"][1:])


def _swap_first_folds(manifest):
    first, second = manifest["traces"][:2]
    return dict(manifest, traces=[dict(first, fold=second["fold"]),
                                  dict(second, fold=first["fold"])]
                + manifest["traces"][2:])


#: broken or edited manifests the reader must refuse with its typed error
#: (the store under test holds one patient's traces with folds=4)
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
    "n_steps-not-int": lambda m: dict(m, n_steps=str(m["n_steps"])),
    "n_steps-edited": lambda m: dict(m, n_steps=m["n_steps"] + 1),
    "platform-edited": lambda m: dict(m, platform="t1ds2013"),
    "fingerprint-edited": lambda m: dict(m, fingerprint="0" * 64),
    "entries-reversed": lambda m: dict(m, traces=m["traces"][::-1]),
    "entries-dropped": lambda m: dict(m, traces=m["traces"][:-1],
                                      n_traces=m["n_traces"] - 1),
    "entry-not-object": lambda m: _with_first_entry(m, 0),
    "entry-without-label": lambda m: _with_first_entry(
        m, _without(m["traces"][0], "label")),
    "entry-without-dt": lambda m: _with_first_entry(
        m, _without(m["traces"][0], "dt")),
    "entry-without-fold": lambda m: _with_first_entry(
        m, _without(m["traces"][0], "fold")),
    "entry-without-fault": lambda m: _with_first_entry(
        m, _without(m["traces"][0], "fault")),
    "entry-patient-not-string": lambda m: _with_first_entry(
        m, dict(m["traces"][0], patient_id=["B"])),
    "entry-dt-not-number": lambda m: _with_first_entry(
        m, dict(m["traces"][0], dt="five")),
    "entry-fault-edited": lambda m: _with_first_entry(
        m, dict(m["traces"][0], fault=dict(
            m["traces"][0]["fault"],
            value=m["traces"][0]["fault"]["value"] + 1.0))),
    # the fingerprint does not cover the fold keys; left unchecked, these
    # open and then break or skew fold_split
    "folds-not-int": lambda m: dict(m, folds=str(m["folds"])),
    "folds-below-two": lambda m: dict(m, folds=1),
    "folds-dropped": lambda m: dict(m, folds=None),
    "entry-fold-out-of-range": lambda m: _with_first_entry(
        m, dict(m["traces"][0], fold=7)),
    "entry-fold-not-int": lambda m: _with_first_entry(
        m, dict(m["traces"][0], fold="0")),
    "entry-fold-dropped": lambda m: _with_first_entry(
        m, dict(m["traces"][0], fold=None)),
    "entry-folds-swapped": _swap_first_folds,
    # the fingerprint does not cover shard names either; left unchecked,
    # these open and then fail untyped or load a shard from outside the
    # store (the test runs inside the store directory, which the last two
    # name by a relative path through its parent and by an absolute path)
    "entry-file-not-string": lambda m: _with_first_entry(
        m, dict(m["traces"][0], file=5)),
    "entry-file-outside-store": lambda m: _with_first_entry(
        m, dict(m["traces"][0], file=os.path.join(
            os.pardir, os.path.basename(os.getcwd()),
            m["traces"][0]["file"]))),
    "entry-file-absolute": lambda m: _with_first_entry(
        m, dict(m["traces"][0],
                file=os.path.abspath(m["traces"][0]["file"]))),
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

    def test_slices_of_dataset_and_view(self, store_dir,
                                        tiny_campaign_traces,
                                        assert_traces_equal):
        """Stepped and reversed slices select what the same slice of
        the trace list selects, on the dataset and on a view."""
        dataset = TraceDataset.open(store_dir)
        view = dataset[10:30]
        for got, want in ((dataset[::7], tiny_campaign_traces[::7]),
                          (dataset[40:30:-3], tiny_campaign_traces[40:30:-3]),
                          (view[1:12:5], tiny_campaign_traces[10:30][1:12:5]),
                          (view[::-4], tiny_campaign_traces[10:30][::-4])):
            assert isinstance(got, TraceDatasetView)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert_traces_equal(a, b)


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

    def test_close_after_abort_writes_no_manifest(self, tmp_path,
                                                  tiny_campaign_traces):
        directory = str(tmp_path / "aborted")
        writer = CampaignStoreWriter(directory, TINY_PLATFORM,
                                     len(tiny_campaign_traces[0]))
        writer.write(tiny_campaign_traces[0])
        writer.abort()
        writer.close()
        assert not os.path.exists(manifest_path(directory))

    def test_sink_refuses_leftover_npy_shards(self, tmp_path):
        """Shards of the old uncompressed format count as leftovers too:
        writing beside them would mix two campaigns."""
        np.save(tmp_path / "trace_000000000.npy", np.zeros(3))
        with pytest.raises(FileExistsError, match="intermix"):
            NpzDirectorySink(str(tmp_path))

    def test_sink_records_one_entry_per_shard(self, tmp_path,
                                              tiny_campaign_traces):
        """A standalone sink numbers its shards in write order and
        records each one's identity, its fold left unassigned."""
        traces = tiny_campaign_traces[:3]
        sink = NpzDirectorySink(str(tmp_path))
        for trace in traces:
            sink.write(trace)
        assert sink.n_written == len(traces)
        assert sorted(os.listdir(tmp_path)) == [
            entry["file"] for entry in sink.entries]
        for i, (trace, entry) in enumerate(zip(traces, sink.entries)):
            assert entry == {
                "file": f"trace_{i:09d}.npz", "patient_id": trace.patient_id,
                "label": trace.label, "dt": trace.dt, "fold": None,
                "fault": {"kind": trace.fault.kind.value,
                          "target": trace.fault.target.value,
                          "start_step": trace.fault.start_step,
                          "duration_steps": trace.fault.duration_steps,
                          "value": trace.fault.value}}


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

    def test_entry_is_a_copy(self, store_dir):
        """Editing a returned entry cannot alter the dataset's index."""
        dataset = TraceDataset.open(store_dir)
        entry = dataset.entry(0)
        entry["fold"] = 3
        entry["patient_id"] = "Z"
        assert dataset.entry(0)["fold"] == 0
        assert dataset.indices(patient_id="Z") == []
        assert 0 in dataset.indices(fold=0)

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
    def test_malformed_manifest(self, store_dir, malform, monkeypatch):
        monkeypatch.chdir(store_dir)
        with open(manifest_path(store_dir)) as fh:
            manifest = json.load(fh)
        with open(manifest_path(store_dir), "w") as fh:
            json.dump(malform(manifest), fh)
        # refused at open, by a message about the manifest itself: the
        # store path is named after this test, so it must not count
        with pytest.raises(CampaignStoreError) as refused:
            TraceDataset.open(store_dir)
        assert "manifest" in str(refused.value).replace(str(store_dir), "")

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

    def test_truncated_manifest(self, store_dir):
        with open(manifest_path(store_dir), "rb") as fh:
            data = fh.read()
        with open(manifest_path(store_dir), "wb") as fh:
            fh.write(data[: len(data) // 2])
        with pytest.raises(CampaignStoreError, match="unreadable"):
            TraceDataset.open(store_dir)

    def test_entry_naming_another_shard(self, store_dir):
        """The fingerprint does not cover shard file names: an entry
        pointed at a sibling's shard is caught by the shard's recorded
        identity when it loads."""
        def misalign(manifest):
            manifest["traces"][0]["file"] = manifest["traces"][1]["file"]
        rewrite_manifest(store_dir, misalign)
        dataset = TraceDataset.open(store_dir)
        dataset[1]
        with pytest.raises(CampaignStoreError, match="manifest expects"):
            dataset[0]

    def test_manifest_not_utf8(self, store_dir):
        """One 0xff byte, which no UTF-8 text holds, in the manifest."""
        with open(manifest_path(store_dir), "rb") as fh:
            data = bytearray(fh.read())
        data[len(data) // 2] = 0xff
        with open(manifest_path(store_dir), "wb") as fh:
            fh.write(data)
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

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
    def test_fifo_in_a_shards_place(self, store_dir):
        """Opening a FIFO blocks until a writer appears, so the reader
        refuses it before opening it."""
        dataset = TraceDataset.open(store_dir)
        path = os.path.join(store_dir, dataset.entry(0)["file"])
        os.remove(path)
        os.mkfifo(path)
        raised = []

        def load():
            try:
                dataset[0]
            except Exception as exc:
                raised.append(exc)

        reader = threading.Thread(target=load, daemon=True)
        reader.start()
        reader.join(timeout=30)
        if reader.is_alive():
            # a writer end releases the blocked open before failing
            os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
            reader.join()
            pytest.fail("reading a FIFO in a shard's place blocked")
        assert len(raised) == 1
        assert isinstance(raised[0], CampaignStoreError)
        assert "not a regular file" in str(raised[0])


def damaged_copies(data, kind, n, seed):
    """*n* seeded damaged copies of *data*: one-byte substitutions,
    truncations, or runs of random bytes overwritten in place."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        pos = int(rng.integers(len(data)))
        if kind == "substitute":
            byte = (data[pos] + int(rng.integers(1, 256))) % 256
            yield data[:pos] + bytes([byte]) + data[pos + 1:]
        elif kind == "truncate":
            yield data[:pos]
        else:
            run = rng.integers(0, 256, int(rng.integers(1, 65)),
                               dtype=np.uint8).tobytes()
            yield (data[:pos] + run + data[pos + len(run):])[:len(data)]


DAMAGE_KINDS = ("substitute", "truncate", "overwrite")
#: what the sweep damages; a fault-free shard has no fault members
DAMAGE_TARGETS = ("manifest", "shard", "fault-free-shard")


class TestDamagedBytes:
    """The reader is the one check a campaign on disk passes: damaged
    bytes either touch nothing it uses, so it returns the original
    traces bit for bit, or raise :class:`CampaignStoreError` — never
    another exception and never a different trace."""

    @pytest.fixture(scope="class")
    def small_stores(self, tmp_path_factory):
        """40-step stores and their traces as written: a 2-trace campaign
        and one fault-free run."""
        root = tmp_path_factory.mktemp("damage")
        stores = {}
        for kind in ("campaign", "fault_free"):
            directory = str(root / kind)
            with CampaignStoreWriter(directory, TINY_PLATFORM, 40) as sink:
                if kind == "campaign":
                    run_campaign(TINY_PLATFORM, [TINY_PATIENT],
                                 tiny_campaign_scenarios()[:2], n_steps=40,
                                 sink=sink)
                else:
                    run_fault_free(TINY_PLATFORM, [TINY_PATIENT], (120.0,),
                                   n_steps=40, cache=None, sink=sink)
            stores[kind] = directory, list(TraceDataset.open(directory))
        return stores

    @pytest.mark.parametrize("target", ["shard", "manifest",
                                        "fault-free-shard"])
    @pytest.mark.parametrize("kind", DAMAGE_KINDS)
    def test_damage_is_harmless_or_typed(self, tmp_path, small_stores, kind,
                                         target, assert_traces_equal):
        original, traces = small_stores[
            "fault_free" if target == "fault-free-shard" else "campaign"]
        directory = str(tmp_path / "campaign")
        shutil.copytree(original, directory)
        # a damaged shard is read alone; a damaged manifest reads them all
        if target == "manifest":
            path, indices = manifest_path(directory), range(len(traces))
        else:
            path, indices = os.path.join(
                directory, TraceDataset.open(directory).entry(0)["file"]), [0]
        with open(path, "rb") as fh:
            data = fh.read()
        seed = (DAMAGE_KINDS.index(kind), DAMAGE_TARGETS.index(target))
        for damaged in damaged_copies(data, kind, 200, seed):
            with open(path, "wb") as fh:
                fh.write(damaged)
            try:
                dataset = TraceDataset.open(directory)
                loaded = [dataset[i] for i in indices]
            except CampaignStoreError:
                continue
            assert len(dataset) == len(traces)
            for got, i in zip(loaded, indices):
                assert_traces_equal(got, traces[i])


#: two patients per platform, so fold keys and shard order interleave
#: patients
STORE_PATIENTS = {"glucosym": ["A", "B"], "t1ds2013": ["P01", "P02"]}


def write_store(directory, platform, kind="campaign", workers=1):
    """Write a small two-patient store of *kind*, 20 steps a trace, and
    return its files as ``{name: bytes}``."""
    with CampaignStoreWriter(str(directory), platform, 20, folds=2) as sink:
        if kind == "campaign":
            run_campaign(platform, STORE_PATIENTS[platform],
                         tiny_campaign_scenarios()[:3], n_steps=20,
                         workers=workers, sink=sink)
        else:
            run_fault_free(platform, STORE_PATIENTS[platform],
                           (100.0, 150.0, 200.0), n_steps=20,
                           workers=workers, cache=None, sink=sink)
    return {path.name: path.read_bytes() for path in directory.iterdir()}


class TestWorkerCount:
    """A store is a function of its plan alone: the forked pool and every
    lock-step width write the manifest and every shard byte for byte as
    the in-process run at the default width does."""

    @pytest.mark.parametrize("platform", sorted(STORE_PATIENTS))
    @pytest.mark.parametrize("kind", ["campaign", "fault_free"])
    def test_bytes_at_any_worker_count(
            self, tmp_path, set_lockstep_width, kind, platform):
        # width 2 cuts the plan into several chunks; map_chunks runs a
        # plan of one chunk in-process, so the pool would never fork
        set_lockstep_width(2)
        stores = {workers: write_store(tmp_path / f"workers{workers}",
                                       platform, kind, workers)
                  for workers in (1, 2, 3)}
        assert sorted(stores[1]) == ["manifest.json"] + [
            f"trace_{i:09d}.npz" for i in range(6)]
        for workers in (2, 3):
            assert sorted(stores[workers]) == sorted(stores[1])
            for name, data in stores[1].items():
                assert stores[workers][name] == data, (workers, name)

    @pytest.mark.parametrize("width", LOCKSTEP_WIDTHS)
    def test_bytes_at_any_lockstep_width(
            self, tmp_path, set_lockstep_width, width):
        reference = write_store(tmp_path / "default", TINY_PLATFORM)
        set_lockstep_width(width)
        assert write_store(tmp_path / f"width{width}",
                           TINY_PLATFORM) == reference


class TestFolds:
    def test_fold_split_matches_kfold_split_per_patient(self, tmp_path):
        """Each patient's traces split as ``kfold_split`` splits that
        patient's trace list, shards interleaving two patients."""
        write_store(tmp_path / "store", TINY_PLATFORM)
        dataset = TraceDataset.open(str(tmp_path / "store"))
        assert dataset.folds == 2
        for fold in range(2):
            split = dataset.fold_split(fold)
            for patient in STORE_PATIENTS[TINY_PLATFORM]:
                own = [t for t in dataset if t.patient_id == patient]
                for view, want in zip(split, kfold_split(own, 2, fold)):
                    assert ([t.label for t in view if t.patient_id == patient]
                            == [t.label for t in want])


#: SHA-256 of the manifest :func:`write_store` writes for each platform's
#: campaign.  A manifest holds no simulated values, so these bytes move
#: only with the manifest layout, the fingerprint or the plan grid, and
#: stores already on disk must stay readable: a change here comes with a
#: SCHEMA_VERSION bump.
PINNED_MANIFEST_SHA256 = {
    "glucosym":
        "81f0031edb405dbc9bec9f26f18c6d4a04158e10dca0fd085e2b3d4f654be4cf",
    "t1ds2013":
        "26fbc0c71b95f477f3b249f987c6c79edb4eeafcd849a1831ec22ca8a3d2d412",
}

#: the shard payload: every name :func:`trace_to_arrays` writes for a
#: faulted trace, with its dtype kind and number of dimensions
PINNED_SHARD_SCHEMA = {
    **{name: ("f", 1) for name in (
        "cgm", "cmd_bolus", "cmd_rate", "ctrl_bolus", "ctrl_rate",
        "delivered_bolus", "delivered_rate", "final_bolus", "final_rate",
        "iob", "iob_rate", "reading", "t", "true_bg")},
    "action": ("i", 1), "alert": ("b", 1), "alert_hazard": ("i", 1),
    "mitigated": ("b", 1),
    "platform": ("U", 0), "patient_id": ("U", 0), "label": ("U", 0),
    "dt": ("f", 0), "fault_kind": ("U", 0), "fault_target": ("U", 0),
    "fault_start": ("i", 0), "fault_duration": ("i", 0),
    "fault_value": ("f", 0),
}


class TestFormatPins:
    """The on-disk format, pinned so that a store written by one code
    version opens under the next."""

    @pytest.mark.parametrize("platform", sorted(STORE_PATIENTS))
    def test_manifest_bytes_pinned(self, tmp_path, platform):
        files = write_store(tmp_path / "store", platform)
        digest = hashlib.sha256(files["manifest.json"]).hexdigest()
        assert digest == PINNED_MANIFEST_SHA256[platform]

    @pytest.mark.parametrize("platform", sorted(STORE_PATIENTS))
    def test_shard_schema_pinned(self, tmp_path, platform):
        write_store(tmp_path / "store", platform)
        with np.load(tmp_path / "store" / "trace_000000000.npz") as payload:
            schema = {name: (payload[name].dtype.kind, payload[name].ndim)
                      for name in payload.files}
        assert schema == PINNED_SHARD_SCHEMA


def np_load_arrays(path):
    with np.load(path) as payload:
        return {name: payload[name] for name in payload.files}


def assert_decodes_like_np_load(path):
    """The store's reader returns the arrays ``np.load`` returns: the
    same names, dtypes, shapes, flags and raw bytes."""
    got, want = _read_shard(str(path)), np_load_arrays(path)
    assert got.keys() == want.keys()
    for name, array in want.items():
        assert got[name].dtype == array.dtype, name
        assert got[name].shape == array.shape, name
        assert got[name].flags.writeable == array.flags.writeable, name
        assert got[name].flags.c_contiguous == array.flags.c_contiguous, name
        assert got[name].tobytes() == array.tobytes(), name


def npy_bytes(array, version=None):
    fh = io.BytesIO()
    np.lib.format.write_array(fh, array, version=version, allow_pickle=True)
    return fh.getvalue()


def crafted_zip(members, **override):
    """A deflated zip of ``{name: bytes}`` without the zip64 extras
    ``np.savez`` forces, built field by field so that *override* can
    set, for the first member, the central directory's ``flags``,
    ``crc`` or inflated ``size`` (as a zip64 extra past 32 bits), the
    compression ``method`` both headers record, the ``local_name`` its
    local header records, or list it ``twice``."""
    body, directory, n_entries = b"", b"", 0
    for i, (name, data) in enumerate(members.items()):
        fields = override if i == 0 else {}
        deflate = zlib.compressobj(6, zlib.DEFLATED, -15)
        raw = deflate.compress(data) + deflate.flush()
        flags, method = fields.get("flags", 0), fields.get("method", 8)
        crc = fields.get("crc", zlib.crc32(data))
        size = fields.get("size", len(data))
        extra = b""
        if size >= 0xFFFFFFFF:
            extra, size = struct.pack("<HHQ", 1, 8, size), 0xFFFFFFFF
        local_name = fields.get("local_name", name).encode()
        offset = len(body)
        body += struct.pack(
            "<4s5H3L2H", b"PK\x03\x04", 20, flags, method, 0, 0,
            zlib.crc32(data), len(raw), len(data), len(local_name),
            0) + local_name + raw
        entry = struct.pack(
            "<4s6H3L5H2L", b"PK\x01\x02", 20, 20, flags, method, 0, 0, crc,
            len(raw), size, len(name), len(extra), 0, 0, 0, 0,
            offset) + name.encode() + extra
        copies = 2 if fields.get("twice") else 1
        directory += entry * copies
        n_entries += copies
    return body + directory + struct.pack(
        "<4s4H2LH", b"PK\x05\x06", 0, 0, n_entries, n_entries,
        len(directory), len(body), 0)


#: channel values where a reader that re-encodes, casts or normalises
#: would show: NaN, both zeros, both infinities and subnormals
EDGE_FLOATS = st.sampled_from([np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324,
                               -2.5e-310, 1.0]) | st.floats()
NAMES = st.text(st.characters(exclude_categories=("Cs",),
                              exclude_characters="\x00"),
                min_size=1, max_size=8)


@st.composite
def store_traces(draw):
    """1-3 traces of one platform and length, faulted or fault-free,
    with any channel values and non-ASCII identities."""
    platform = draw(st.sampled_from(sorted(STORE_PATIENTS)))
    n_steps = draw(st.integers(1, 12))
    faults = st.none() | st.builds(
        FaultSpec, kind=st.sampled_from(FaultKind),
        target=st.sampled_from(FaultTarget),
        start_step=st.integers(0, 10 ** 6),
        duration_steps=st.integers(1, 10 ** 6),
        value=st.floats(0.0, 1e6))
    traces = []
    for _ in range(draw(st.integers(1, 3))):
        channels = {
            name: draw(hnp.arrays(dtype, n_steps, elements=EDGE_FLOATS)
                       if dtype.kind == "f" else hnp.arrays(dtype, n_steps))
            for name, dtype in TRACE_COLUMN_DTYPES.items()}
        traces.append(SimulationTrace(
            platform=platform, patient_id=draw(NAMES), label=draw(NAMES),
            dt=draw(st.floats(0.1, 60.0)), fault=draw(faults), **channels))
    return traces


class TestReaderMatchesNpLoad:
    """The store decodes its shards without ``np.load``, into the arrays
    ``np.load`` gives: the shards stay plain npz that any numpy reads."""

    @given(store_traces())
    @settings(max_examples=30, deadline=None)
    def test_written_shards_decode_like_np_load(self, traces):
        with tempfile.TemporaryDirectory() as directory:
            with CampaignStoreWriter(directory, traces[0].platform,
                                     len(traces[0])) as sink:
                for trace in traces:
                    sink.write(trace)
            dataset = TraceDataset.open(directory)
            for i, trace in enumerate(traces):
                assert_decodes_like_np_load(
                    os.path.join(directory, dataset.entry(i)["file"]))
                got = trace_to_arrays(dataset[i])
                for name, array in trace_to_arrays(trace).items():
                    assert got[name].dtype == array.dtype, name
                    assert got[name].tobytes() == array.tobytes(), name

    @pytest.fixture()
    def shard_arrays(self, store_dir):
        return np_load_arrays(os.path.join(
            store_dir, TraceDataset.open(store_dir).entry(0)["file"]))

    @pytest.mark.parametrize("variant", ["stored", "no-zip64", "npy-2.0",
                                         "fortran-order"])
    def test_archive_variants_decode_like_np_load(self, tmp_path,
                                                  shard_arrays, variant):
        path = tmp_path / "shard.npz"
        if variant == "fortran-order":
            shard_arrays["grid"] = np.asfortranarray(
                np.arange(6.0).reshape(2, 3))
        if variant == "stored":
            np.savez(path, **shard_arrays)
        else:
            version = (2, 0) if variant == "npy-2.0" else None
            path.write_bytes(crafted_zip({
                name + ".npy": npy_bytes(array, version)
                for name, array in shard_arrays.items()}))
        assert_decodes_like_np_load(path)


#: crafted shards the reader refuses, each a valid shard whose first
#: member, ``cgm``, is written under the name given, holding the array
#: given (None: its own), with these central-directory or local-header
#: fields overridden; and what the refusal says
CRAFTED_SHARDS = {
    "object-dtype": ("cgm.npy", np.array(["B"], dtype=object), {},
                     "object arrays"),
    "local-header-names-another-member": (
        "cgm.npy", None, dict(local_name="iob.npy"), "local header"),
    "encrypted": ("cgm.npy", None, dict(flags=0x1), "encrypted"),
    "bzip2": ("cgm.npy", None, dict(method=zipfile.ZIP_BZIP2),
              "compression method"),
    "crc-mismatch": ("cgm.npy", None, dict(crc=0), "CRC-32"),
    "size-mismatch": ("cgm.npy", None, dict(size=1), "CRC-32"),
    "size-2**63-1": ("cgm.npy", None, dict(size=2 ** 63 - 1), "CRC-32"),
    "name-without-npy": ("cgm", None, {}, ".npy"),
    # overlapping members could inflate one shard far past its size
    "members-overlap": ("cgm.npy", None, dict(twice=True), "overlaps"),
}


class TestCraftedShards:
    @pytest.mark.parametrize("craft", list(CRAFTED_SHARDS.values()),
                             ids=list(CRAFTED_SHARDS))
    def test_crafted_member_refused(self, store_dir, craft):
        name, array, override, says = craft
        dataset = TraceDataset.open(store_dir)
        path = os.path.join(store_dir, dataset.entry(0)["file"])
        arrays = np_load_arrays(path)
        cgm = arrays.pop("cgm")
        members = {name: npy_bytes(cgm if array is None else array)}
        members.update((key + ".npy", npy_bytes(value))
                       for key, value in arrays.items())
        with open(path, "wb") as fh:
            fh.write(crafted_zip(members, **override))
        with pytest.raises(CampaignStoreError, match=says):
            dataset[0]


#: the committed stores: one per platform, each a 20-step faulted trace of
#: one patient (the first tiny-grid scenario) and its fault-free run from
#: 120 mg/dL, written with folds=2 by the writer of schema version 2
COMMITTED_STORES = os.path.join(os.path.dirname(__file__), "data")


def arrays_digest(arrays):
    """SHA-256 over each array's name, dtype, shape and bytes, by name."""
    h = hashlib.sha256()
    for name in sorted(arrays):
        array = arrays[name]
        h.update(f"{name}:{array.dtype.str}:{array.shape}\n".encode())
        h.update(array.tobytes())
    return h.hexdigest()


class TestCommittedStores:
    """Stores written by an earlier build, and the digests of the arrays
    ``np.load`` read from them then: every later reader must open them
    and return those arrays."""

    @pytest.mark.parametrize("platform", sorted(STORE_PATIENTS))
    def test_committed_store_decodes_to_recorded_digests(self, platform):
        with open(os.path.join(COMMITTED_STORES,
                               "store_v2_digests.json")) as fh:
            recorded = json.load(fh)[platform]
        dataset = TraceDataset.open(os.path.join(COMMITTED_STORES,
                                                 "store_v2", platform))
        assert {dataset.entry(i)["file"]: arrays_digest(
                    trace_to_arrays(trace))
                for i, trace in enumerate(dataset)} == recorded


class TestTraceTicks:
    def test_ticks_from_store_match_ticks_from_list(self, store_dir,
                                                    tiny_campaign_traces):
        """A store replays as the same tick stream as its traces held in
        memory: tick ``s`` stacks every trace's step ``s``."""
        dataset = TraceDataset.open(store_dir, cache_size=4)
        traces = tiny_campaign_traces[:5]
        stored = list(iter_trace_ticks(dataset[:5]))
        assert len(stored) == len(traces[0])
        for tick, want in zip(stored, iter_trace_ticks(traces)):
            assert (tick.step, tick.t) == (want.step, want.t)
            for field in ("cgm", "iob", "iob_rate", "rate", "bolus",
                          "action"):
                assert np.array_equal(getattr(tick, field),
                                      getattr(want, field)), field
        assert np.array_equal(stored[7].cgm,
                              [trace.cgm[7] for trace in traces])

    def test_ragged_lengths_rejected(self, tiny_campaign_traces,
                                     tiny_fault_free_traces):
        with pytest.raises(ValueError, match="one length"):
            list(iter_trace_ticks([tiny_campaign_traces[0],
                                   tiny_fault_free_traces[0]]))
