"""Assemble per-range partial datasets into one validated campaign store.

:func:`merge_manifests` is the gatekeeper between "a pile of directories
workers left behind" and "a dataset downstream code may trust".  It
accepts the partial directories in **any order** (completions reorder
freely under retry), validates them against each other and against the
plan fingerprint, and only then hard-links the shards into the output
directory and finalises a manifest through the store's own
:func:`~repro.simulation.store.write_manifest` — so a clean merge is
**byte-identical** to the manifest a single-box
:class:`~repro.simulation.store.CampaignStoreWriter` run over the same
plan would have produced (same entries, same fold assignment, same
fingerprint, same JSON bytes).

The validation matrix (every row a typed
:class:`~repro.distributed.errors.MergeManifestError`):

==========================  ===========================================
missing/unreadable partial  corrupted or truncated ``partial_manifest``
format/schema skew          partial written by another code version,
                            or naming a shard format other than npz
identity disagreement       platform / n_steps / dt / n_runs differ
                            across partials
fingerprint mismatch        a partial belongs to a different plan, or
                            the merged entries do not hash to the plan
entry/range mismatch        entry count or shard names disagree with
                            the recorded ``[start, stop)``
divergent duplicates        two partials claim the same range with
                            different entries
overlap / gap               ranges are not a disjoint cover of the plan
missing shard               an entry's shard file is absent on disk
occupied output             the output directory already holds a
                            manifest
==========================  ===========================================

Exact duplicates — the same range delivered twice with identical entries,
the normal outcome of an at-least-once retry path — are deduplicated
silently: re-execution is idempotent *because* it is deterministic, so
either copy is the result.
"""

from __future__ import annotations

import json
import os
import shutil
from typing import Dict, List, Optional, Sequence, Tuple

from ..parallel import ranges_defect
from ..simulation.store import (SCHEMA_VERSION, SHARD_FORMAT,
                                CampaignStoreError, NpzDirectorySink,
                                TraceDataset, _entry_cell, assign_folds,
                                campaign_fingerprint, manifest_path,
                                write_manifest)
from .errors import MergeManifestError
from .worker import PARTIAL_FORMAT_VERSION, partial_manifest_path

__all__ = ["load_partial", "merge_manifests", "merged_dataset"]

#: keys every partial manifest must carry
_REQUIRED_KEYS = ("format", "schema_version", "plan_fingerprint", "platform",
                  "n_steps", "dt", "n_runs", "shard_format", "start", "stop",
                  "entries", "stats")

#: the partial-manifest fields that must agree across every partial of one
#: campaign (the merged dataset's identity)
_IDENTITY_KEYS = ("plan_fingerprint", "platform", "n_steps", "dt", "n_runs")


def load_partial(directory: str) -> dict:
    """Load and structurally validate one partial manifest.

    Raises :class:`MergeManifestError` for every way a partial can be
    unusable on its own: missing, unreadable, truncated (torn JSON),
    format- or schema-version skew, a shard format other than npz,
    missing keys, an ill-formed range,
    an entry count that disagrees with the range, or shard filenames
    that do not match the range's global indices.
    """
    path = partial_manifest_path(directory)
    if not os.path.exists(path):
        raise MergeManifestError(
            f"no partial manifest at {path}; the range worker did not "
            "finish (crashed or still running)")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MergeManifestError(
            f"corrupted or truncated partial manifest at {path}: "
            f"{exc}") from exc
    missing = [key for key in _REQUIRED_KEYS if key not in doc]
    if missing:
        raise MergeManifestError(
            f"partial manifest at {path} is missing keys {missing} "
            "(truncated or foreign file)")
    if doc["format"] != PARTIAL_FORMAT_VERSION:
        raise MergeManifestError(
            f"partial manifest at {path} has format version "
            f"{doc['format']!r}; this merger supports "
            f"{PARTIAL_FORMAT_VERSION}")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise MergeManifestError(
            f"schema-version skew: partial at {path} was written for "
            f"store schema {doc['schema_version']!r}, this merger builds "
            f"schema {SCHEMA_VERSION} datasets")
    if doc["shard_format"] != SHARD_FORMAT:
        raise MergeManifestError(
            f"partial manifest at {path} uses shard format "
            f"{doc['shard_format']!r}; this merger supports "
            f"{SHARD_FORMAT!r}")
    start, stop, n_runs = doc["start"], doc["stop"], doc["n_runs"]
    if not 0 <= start < stop <= n_runs:
        raise MergeManifestError(
            f"partial manifest at {path} records range [{start}, {stop}) "
            f"which is not a well-formed slice of the {n_runs}-run plan")
    entries = doc["entries"]
    if len(entries) != stop - start:
        raise MergeManifestError(
            f"partial manifest at {path} covers range [{start}, {stop}) "
            f"but carries {len(entries)} entries (interrupted or edited)")
    for offset, entry in enumerate(entries):
        expected = NpzDirectorySink.shard_name(start + offset)
        if entry.get("file") != expected:
            raise MergeManifestError(
                f"partial manifest at {path}: entry {offset} names shard "
                f"{entry.get('file')!r} but global plan index "
                f"{start + offset} requires {expected!r} (shards "
                "misaligned with the recorded range)")
    doc["directory"] = directory
    return doc


def _check_identity(partials: Sequence[dict],
                    expect_fingerprint: Optional[str]) -> None:
    reference = partials[0]
    for doc in partials[1:]:
        for key in _IDENTITY_KEYS:
            if doc[key] != reference[key]:
                raise MergeManifestError(
                    f"partial manifests disagree on {key}: "
                    f"{reference['directory']} has {reference[key]!r}, "
                    f"{doc['directory']} has {doc[key]!r} — these ranges "
                    "belong to different campaigns")
    if (expect_fingerprint is not None
            and reference["plan_fingerprint"] != expect_fingerprint):
        raise MergeManifestError(
            f"fingerprint mismatch: partials carry plan fingerprint "
            f"{reference['plan_fingerprint']} but the merge expects "
            f"{expect_fingerprint} — these partials were simulated from "
            "a different campaign plan")


def _dedup_ranges(partials: Sequence[dict]) -> List[dict]:
    """Collapse exact duplicate ranges; refuse divergent ones.

    At-least-once delivery (a straggler finishing after its retry was
    accepted, a duplicated completion message) legitimately hands the
    merge the same range twice; determinism guarantees the copies are
    identical, so the first is kept.  Two partials claiming one range
    with *different* entries mean a worker simulated the wrong thing —
    that is never reconcilable and always loud.
    """
    by_range: Dict[Tuple[int, int], dict] = {}
    for doc in partials:
        key = (doc["start"], doc["stop"])
        kept = by_range.get(key)
        if kept is None:
            by_range[key] = doc
        elif kept["entries"] != doc["entries"]:
            raise MergeManifestError(
                f"divergent duplicates for range [{key[0]}, {key[1]}): "
                f"{kept['directory']} and {doc['directory']} deliver "
                "different entries for the same runs — the workers did "
                "not execute the same plan")
    return [by_range[key] for key in sorted(by_range)]


def merge_manifests(partial_dirs: Sequence[str], out_dir: str,
                    folds: Optional[int] = None,
                    expect_fingerprint: Optional[str] = None) -> dict:
    """Merge per-range partial datasets into a campaign store at *out_dir*.

    Parameters
    ----------
    partial_dirs:
        Directories written by range workers, in any order.  Exact
        duplicate ranges are deduplicated; anything else irregular is a
        typed error (see the module validation matrix).
    out_dir:
        Output directory; must not already hold a campaign manifest.
        Shards are hard-linked in (falling back to copies across
        filesystems) and the manifest is finalised last, atomically —
        an interrupted merge leaves no parsable manifest behind.
    folds:
        Cross-validation fold count recorded in the manifest, assigned
        per patient over the *merged* plan-ordered entries — exactly the
        single-box :class:`CampaignStoreWriter` rule.
    expect_fingerprint:
        The coordinator's :func:`~repro.simulation.store.plan_fingerprint`;
        when given, partials from any other plan are refused.

    Returns the merged manifest document (whose ``fingerprint`` equals
    the plan fingerprint — that equality is itself verified before
    anything is written).
    """
    if not partial_dirs:
        raise MergeManifestError("no partial directories to merge")
    if folds is not None and folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    partials = [load_partial(directory) for directory in partial_dirs]
    _check_identity(partials, expect_fingerprint)
    partials = _dedup_ranges(partials)
    n_runs = partials[0]["n_runs"]
    defect = ranges_defect([(doc["start"], doc["stop"])
                            for doc in partials], n_runs)
    if defect is not None:
        raise MergeManifestError(
            f"partial ranges do not tile the {n_runs}-run plan: {defect}")

    # every shard must exist before anything is linked — a merge must not
    # discover a hole halfway through populating the output directory
    for doc in partials:
        for entry in doc["entries"]:
            shard = os.path.join(doc["directory"], entry["file"])
            if not os.path.exists(shard):
                raise MergeManifestError(
                    f"missing shard {entry['file']} in {doc['directory']} "
                    f"(range [{doc['start']}, {doc['stop']})) — partial "
                    "dataset incomplete")

    entries = [dict(entry) for doc in partials for entry in doc["entries"]]
    # the fold rule and fingerprint both need the full plan-ordered list
    assign_folds(entries, folds)
    merged_fingerprint = campaign_fingerprint(
        partials[0]["platform"], partials[0]["n_steps"],
        (_entry_cell(e) for e in entries))
    if merged_fingerprint != partials[0]["plan_fingerprint"]:
        raise MergeManifestError(
            f"fingerprint mismatch: merged entries hash to "
            f"{merged_fingerprint} but the partials record plan "
            f"fingerprint {partials[0]['plan_fingerprint']} — a worker "
            "simulated different runs than the plan describes")

    if os.path.exists(manifest_path(out_dir)):
        raise MergeManifestError(
            f"{out_dir} already holds a campaign manifest; merge into a "
            "fresh directory or remove it first")
    os.makedirs(out_dir, exist_ok=True)
    for doc in partials:
        for entry in doc["entries"]:
            src = os.path.join(doc["directory"], entry["file"])
            dst = os.path.join(out_dir, entry["file"])
            if os.path.exists(dst):
                os.remove(dst)  # rerun over a manifest-less directory
            try:
                os.link(src, dst)
            except OSError:
                shutil.copy2(src, dst)
    return write_manifest(out_dir, partials[0]["platform"],
                          partials[0]["n_steps"], folds, entries)


def merged_dataset(out_dir: str, **open_kwargs) -> TraceDataset:
    """Open a merged directory as a :class:`TraceDataset`, translating
    store errors into the distributed layer's typed error."""
    try:
        return TraceDataset.open(out_dir, **open_kwargs)
    except CampaignStoreError as exc:
        raise MergeManifestError(
            f"merged dataset at {out_dir} failed validation: {exc}") from exc
