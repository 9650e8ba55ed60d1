"""merge_manifests: the golden byte-identity path and every refusal row.

The clean merge is compared against the session's single-box reference
store at three strengths — manifest fingerprint, manifest **bytes**, and
element-wise trace equality — and then each row of the validation matrix
is driven to its typed :class:`MergeManifestError`.
"""

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.distributed import (MergeManifestError, corrupt_partial_manifest,
                               delete_shard, load_partial, merge_manifests,
                               merged_dataset, partial_manifest_path,
                               truncate_partial_manifest, write_partial)
from repro.parallel import partition_ranges
from repro.simulation import TraceDataset
from repro.simulation.store import plan_fingerprint

#: must match conftest.FOLDS — the reference store's fold count
FOLDS = 2


@pytest.fixture()
def partials(plan, tmp_path):
    """Fresh two-range partials for the session plan (function-scoped:
    most error-path tests mutate them)."""
    dirs = []
    for start, stop in partition_ranges(len(plan.runs), 2):
        directory = str(tmp_path / f"part_{start}_{stop}")
        write_partial(plan, start, stop, directory)
        dirs.append(directory)
    return dirs


def _edit_partial(directory, **overrides):
    path = partial_manifest_path(directory)
    doc = json.load(open(path))
    doc.update(overrides)
    json.dump(doc, open(path, "w"))
    return doc


class TestCleanMerge:
    def test_byte_identical_with_single_box(self, plan, partials, tmp_path,
                                            reference_store,
                                            reference_manifest_bytes):
        out = str(tmp_path / "merged")
        manifest = merge_manifests(partials, out, folds=FOLDS,
                                   expect_fingerprint=plan_fingerprint(plan))
        assert manifest["fingerprint"] == plan_fingerprint(plan)
        merged_bytes = open(os.path.join(out, "manifest.json"), "rb").read()
        assert merged_bytes == reference_manifest_bytes
        ref, merged = TraceDataset.open(reference_store), merged_dataset(out)
        assert len(ref) == len(merged) == len(plan.runs)
        for i in range(len(ref)):
            a, b = ref[i], merged[i]
            for field in dataclasses.fields(a):
                v1, v2 = getattr(a, field.name), getattr(b, field.name)
                if isinstance(v1, np.ndarray):
                    assert np.array_equal(v1, v2), field.name
                else:
                    assert v1 == v2, field.name

    def test_order_independent(self, plan, partials, tmp_path,
                               reference_manifest_bytes):
        out = str(tmp_path / "merged")
        merge_manifests(list(reversed(partials)), out, folds=FOLDS)
        assert open(os.path.join(out, "manifest.json"),
                    "rb").read() == reference_manifest_bytes

    def test_exact_duplicate_range_deduped(self, plan, partials, tmp_path,
                                           reference_manifest_bytes):
        """At-least-once delivery: the same range handed in twice (a
        straggler finishing after its retry) merges as if once."""
        out = str(tmp_path / "merged")
        merge_manifests(partials + [partials[0]], out, folds=FOLDS)
        assert open(os.path.join(out, "manifest.json"),
                    "rb").read() == reference_manifest_bytes

    def test_fold_assignment_matches_writer(self, partials, tmp_path,
                                            reference_store):
        out = str(tmp_path / "merged")
        merge_manifests(partials, out, folds=FOLDS)
        ref = json.load(open(os.path.join(reference_store, "manifest.json")))
        merged = json.load(open(os.path.join(out, "manifest.json")))
        assert ([e["fold"] for e in merged["traces"]]
                == [e["fold"] for e in ref["traces"]])


class TestMergeRefusals:
    def test_empty_input(self, tmp_path):
        with pytest.raises(MergeManifestError, match="no partial"):
            merge_manifests([], str(tmp_path / "out"))

    def test_missing_partial_manifest(self, partials, tmp_path):
        os.remove(partial_manifest_path(partials[0]))
        with pytest.raises(MergeManifestError, match="did not finish"):
            merge_manifests(partials, str(tmp_path / "out"))

    def test_corrupted_partial_manifest(self, partials, tmp_path):
        corrupt_partial_manifest(partials[1])
        with pytest.raises(MergeManifestError,
                           match="corrupted or truncated"):
            merge_manifests(partials, str(tmp_path / "out"))

    def test_truncated_partial_manifest(self, partials, tmp_path):
        truncate_partial_manifest(partials[0])
        with pytest.raises(MergeManifestError,
                           match="corrupted or truncated"):
            merge_manifests(partials, str(tmp_path / "out"))

    def test_schema_version_skew(self, partials, tmp_path):
        _edit_partial(partials[0], schema_version=1)
        with pytest.raises(MergeManifestError, match="schema-version skew"):
            merge_manifests(partials, str(tmp_path / "out"))

    def test_format_version_skew(self, partials, tmp_path):
        _edit_partial(partials[0], format=999)
        with pytest.raises(MergeManifestError, match="format version"):
            merge_manifests(partials, str(tmp_path / "out"))

    def test_foreign_shard_format(self, partials, tmp_path):
        """A partial naming another shard format (an old npy worker) is
        refused before anything is linked."""
        _edit_partial(partials[0], shard_format="npy")
        with pytest.raises(MergeManifestError, match="shard format"):
            merge_manifests(partials, str(tmp_path / "out"))

    def test_expect_fingerprint_mismatch(self, partials, tmp_path):
        with pytest.raises(MergeManifestError, match="fingerprint mismatch"):
            merge_manifests(partials, str(tmp_path / "out"),
                            expect_fingerprint="deadbeef")

    def test_cross_partial_fingerprint_disagreement(self, partials,
                                                    tmp_path):
        _edit_partial(partials[1], plan_fingerprint="deadbeef")
        with pytest.raises(MergeManifestError,
                           match="disagree on plan_fingerprint"):
            merge_manifests(partials, str(tmp_path / "out"))

    def test_missing_range(self, partials, tmp_path):
        with pytest.raises(MergeManifestError, match="is missing"):
            merge_manifests(partials[:1], str(tmp_path / "out"))

    def test_overlapping_ranges(self, plan, partials, tmp_path):
        overlap = str(tmp_path / "overlap")
        write_partial(plan, 1, 4, overlap)
        with pytest.raises(MergeManifestError, match="overlap"):
            merge_manifests(partials + [overlap], str(tmp_path / "out"))

    def test_divergent_duplicate(self, partials, tmp_path):
        twin = str(tmp_path / "twin")
        os.makedirs(twin)
        doc = json.load(open(partial_manifest_path(partials[0])))
        doc["entries"][0]["label"] = "tampered"
        json.dump(doc, open(partial_manifest_path(twin), "w"))
        for entry in doc["entries"]:
            open(os.path.join(twin, entry["file"]), "wb").close()
        with pytest.raises(MergeManifestError, match="divergent duplicates"):
            merge_manifests(partials + [twin], str(tmp_path / "out"))

    def test_entry_count_mismatch(self, partials, tmp_path):
        doc = json.load(open(partial_manifest_path(partials[0])))
        doc["entries"] = doc["entries"][:-1]
        json.dump(doc, open(partial_manifest_path(partials[0]), "w"))
        with pytest.raises(MergeManifestError, match="entries"):
            merge_manifests(partials, str(tmp_path / "out"))

    def test_misaligned_shard_names(self, partials, tmp_path):
        doc = json.load(open(partial_manifest_path(partials[1])))
        doc["entries"][0]["file"] = "trace_000000000.npz"
        json.dump(doc, open(partial_manifest_path(partials[1]), "w"))
        with pytest.raises(MergeManifestError, match="misaligned"):
            merge_manifests(partials, str(tmp_path / "out"))

    def test_missing_shard_file(self, partials, tmp_path):
        delete_shard(partials[0], 0)
        with pytest.raises(MergeManifestError, match="missing shard"):
            merge_manifests(partials, str(tmp_path / "out"))

    def test_occupied_output_dir(self, partials, tmp_path,
                                 reference_store):
        with pytest.raises(MergeManifestError, match="already holds"):
            merge_manifests(partials, reference_store)

    def test_tampered_entries_fail_final_fingerprint(self, partials,
                                                     tmp_path):
        """Entries edited consistently across duplicates still cannot hash
        to the recorded plan fingerprint."""
        doc = json.load(open(partial_manifest_path(partials[0])))
        for entry in doc["entries"]:
            entry["label"] = "tampered"
        json.dump(doc, open(partial_manifest_path(partials[0]), "w"))
        with pytest.raises(MergeManifestError, match="fingerprint"):
            merge_manifests(partials, str(tmp_path / "out"))

    def test_nothing_written_on_refusal(self, partials, tmp_path):
        out = str(tmp_path / "out")
        delete_shard(partials[1], 0)
        with pytest.raises(MergeManifestError):
            merge_manifests(partials, out)
        assert not os.path.exists(os.path.join(out, "manifest.json"))


class TestLoadPartial:
    def test_roundtrip(self, partials):
        doc = load_partial(partials[0])
        assert doc["directory"] == partials[0]
        assert doc["stats"]["host"]

    def test_missing_keys_rejected(self, partials):
        path = partial_manifest_path(partials[0])
        doc = json.load(open(path))
        del doc["stats"]
        json.dump(doc, open(path, "w"))
        with pytest.raises(MergeManifestError, match="missing keys"):
            load_partial(partials[0])
