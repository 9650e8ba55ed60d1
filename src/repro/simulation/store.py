"""Write-once on-disk campaign datasets: npz shards + a JSON manifest.

The paper's evaluation simulates each fault-injection campaign *once* and
then replays every candidate monitor, threshold learner and ML dataset
builder over the recorded traces.  This module turns that "run once" step
into a durable artifact, and is the one place that knows its on-disk
format:

- :class:`NpzDirectorySink` writes each trace to one compressed,
  self-describing ``trace_<index>.npz`` shard and records its manifest
  entry — the only shard format (:data:`SHARD_FORMAT`);
- :class:`CampaignStoreWriter` streams traces (in plan order, byte-identical
  at any worker count) through that sink and finalises a
  ``manifest.json`` keyed by patient / scenario / fold, carrying a schema
  version and a campaign fingerprint;
- :class:`TraceDataset` reopens the directory as a lazy, bounded-memory
  sequence of :class:`~repro.simulation.trace.SimulationTrace` objects —
  shards load on demand into a small LRU window, so downstream consumers
  (``build_point_dataset``, ``mine_rule_samples``, ``replay_campaign``)
  can stream arbitrarily large campaigns without materialising them.

The fingerprint is a SHA-256 over the campaign's identity — platform,
step count and the ordered (patient, scenario label, fault) cells — and is
computable both from a :class:`~repro.simulation.executor.CampaignPlan`
(before simulating) and from a manifest (after), so "is this directory
the campaign my config describes?" is a cheap equality check.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import math
import os
import stat
import struct
import zipfile
import zlib
from collections import OrderedDict
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..fi import FaultSpec
from .executor import CampaignPlan, TraceSink
from .trace import SimulationTrace, trace_from_arrays, trace_to_arrays

__all__ = [
    "SCHEMA_VERSION", "MANIFEST_NAME", "SHARD_FORMAT", "CampaignStoreError",
    "campaign_fingerprint", "plan_fingerprint", "NpzDirectorySink",
    "CampaignStoreWriter",
    "DatasetStats", "TraceDataset", "TraceDatasetView",
    "manifest_path", "TraceTick", "iter_trace_ticks",
]

#: bump when the manifest layout, the shard payload schema, or the
#: simulated trace content changes (v2: the control period ``dt`` joined
#: the fingerprint cells, and the scalar/vector engine unification of
#: PR 4 moved transcendental rounding from libm to numpy — traces differ
#: from v1 stores in low-order bits, so v1 stores must not be reused)
SCHEMA_VERSION = 2

MANIFEST_NAME = "manifest.json"

#: the one shard format, recorded in every manifest so that stores stay
#: readable across code versions; a manifest naming any other format (such
#: as an old uncompressed ``"npy"`` store) is refused
SHARD_FORMAT = "npz"

#: default size of the lazy reader's LRU window (traces held in memory)
DEFAULT_CACHE_SIZE = 16


class CampaignStoreError(RuntimeError):
    """A campaign dataset is missing, corrupted, or from another campaign."""


def manifest_path(directory: str) -> str:
    return os.path.join(directory, MANIFEST_NAME)


# ----------------------------------------------------------------------
# fingerprinting
# ----------------------------------------------------------------------

#: one campaign cell: (patient_id, label, dt, fault-or-None) where the
#: fault is the 5-tuple (kind, target, start_step, duration_steps, value)
Cell = Tuple[str, str, float, Optional[Tuple[str, str, int, int, float]]]


def _fault_cell(fault: Optional[FaultSpec]
                ) -> Optional[Tuple[str, str, int, int, float]]:
    if fault is None:
        return None
    return (fault.kind.value, fault.target.value, int(fault.start_step),
            int(fault.duration_steps), float(fault.value))


def campaign_fingerprint(platform: str, n_steps: int,
                         cells: Iterable[Cell]) -> str:
    """SHA-256 hex digest of a campaign's identity.

    Canonical-JSON hash over the platform, the per-trace step count and
    the *ordered* (patient, label, dt, fault) cells — everything that
    determines the simulated traces, nothing that doesn't (worker count,
    batch size, directory).
    """
    doc = {"schema_version": SCHEMA_VERSION, "platform": platform,
           "n_steps": int(n_steps),
           "cells": [[pid, label, float(dt), list(fault) if fault else None]
                     for pid, label, dt, fault in cells]}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def plan_fingerprint(plan: CampaignPlan) -> str:
    """The fingerprint a store written from *plan* will carry."""
    cells = [(run.patient_id, run.label, plan.dt, _fault_cell(run.fault))
             for run in plan.runs]
    return campaign_fingerprint(plan.platform, plan.n_steps, cells)


def _entry_cell(entry: Mapping) -> Cell:
    fault = entry.get("fault")
    if fault is not None:
        fault = (fault["kind"], fault["target"], int(fault["start_step"]),
                 int(fault["duration_steps"]), float(fault["value"]))
    return (entry["patient_id"], entry["label"], float(entry["dt"]), fault)


# ----------------------------------------------------------------------
# manifest construction
# ----------------------------------------------------------------------

def _trace_entry(trace: SimulationTrace, file: str) -> dict:
    """The manifest entry recording *trace* stored at shard *file*.

    ``fold`` starts unassigned (``None``); :func:`_assign_folds` fills it
    in over the complete, plan-ordered entry list — fold identity depends
    on a trace's position among its patient's traces, which no single
    shard can know in isolation.
    """
    fault = None
    if trace.fault is not None:
        fault = {"kind": trace.fault.kind.value,
                 "target": trace.fault.target.value,
                 "start_step": trace.fault.start_step,
                 "duration_steps": trace.fault.duration_steps,
                 "value": trace.fault.value}
    return {"file": file, "patient_id": trace.patient_id,
            "label": trace.label, "dt": trace.dt, "fold": None,
            "fault": fault}


def _assign_folds(entries: List[dict], folds: Optional[int]) -> List[dict]:
    """Assign per-patient round-robin cross-validation folds in place.

    The same assignment :func:`~repro.simulation.batch.kfold_split`
    produces on a patient's trace list: the n-th trace of each patient
    (in entry order) lands in fold ``n % folds``.  Entry order must be
    plan order — call this only on a complete entry list.  With
    ``folds=None`` every ``fold`` stays ``None``.  Returns *entries*.
    """
    if folds is None:
        return entries
    per_patient: Dict[str, int] = {}
    for entry in entries:
        seen = per_patient.get(entry["patient_id"], 0)
        entry["fold"] = seen % folds
        per_patient[entry["patient_id"]] = seen + 1
    return entries


def _write_manifest(directory: str, platform: str, n_steps: int,
                    folds: Optional[int], entries: List[dict]) -> None:
    """Finalise a campaign manifest over *entries*, atomically.

    Computes the fingerprint from the entry cells and writes
    ``manifest.json`` via write-then-rename, so a torn write never yields
    a parsable manifest.
    """
    fingerprint = campaign_fingerprint(
        platform, int(n_steps), (_entry_cell(e) for e in entries))
    manifest = {"schema_version": SCHEMA_VERSION,
                "fingerprint": fingerprint, "platform": platform,
                "n_steps": int(n_steps), "folds": folds,
                "shard_format": SHARD_FORMAT,
                "n_traces": len(entries), "traces": entries}
    tmp = manifest_path(directory) + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
    os.replace(tmp, manifest_path(directory))


# ----------------------------------------------------------------------
# writers
# ----------------------------------------------------------------------

class NpzDirectorySink(TraceSink):
    """Stream each trace to ``<directory>/trace_<index>.npz``.

    Each shard is a self-describing
    :func:`~repro.simulation.trace.trace_to_arrays` payload: array channels
    stored as-is, identity metadata (platform, patient, label, dt and the
    fault spec fields) riding along as 0-d object-free entries.  The sink
    records each shard's manifest entry in :attr:`entries`; pair it
    with a manifest via :class:`CampaignStoreWriter` to get a reopenable
    on-disk dataset.
    """

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        # old uncompressed .npy shards count too: leftovers of any format
        # beside new shards would mix two campaigns
        stale = [name for name in os.listdir(directory)
                 if name.startswith("trace_")
                 and name.endswith((".npz", ".npy"))]
        if stale:
            raise FileExistsError(
                f"{directory} already holds {len(stale)} trace file(s); "
                "writing would intermix two campaigns — use a fresh "
                "directory or remove them first")
        self.n_written = 0
        #: one fold-unassigned manifest entry per written shard
        self.entries: List[dict] = []

    @staticmethod
    def shard_name(index: int) -> str:
        return f"trace_{index:09d}.{SHARD_FORMAT}"

    def write(self, trace: SimulationTrace) -> None:
        name = self.shard_name(self.n_written)
        np.savez_compressed(os.path.join(self.directory, name),
                            **trace_to_arrays(trace))
        self.n_written += 1
        self.entries.append(_trace_entry(trace, name))


class CampaignStoreWriter(NpzDirectorySink):
    """Stream a campaign into *directory* and finalise its manifest.

    The shard sink (which refuses directories already holding trace
    shards), checking each trace against the store's platform and step
    count.  When *folds* is given, each entry also carries the trace's
    round-robin cross-validation fold *within its patient* — the same
    assignment :func:`~repro.simulation.batch.kfold_split` produces on a
    patient's trace list, so readers can reconstruct any fold without
    loading data.

    Use as a context manager (or call :meth:`close`): the manifest — and
    with it the dataset's validity — only exists after a clean close.  If
    the ``with`` body raises (a simulator error, a dead worker), the
    writer *aborts* instead of closing: no manifest is written, so the
    half-written shard pile can never be mistaken for a complete dataset
    and the next open/rewrite reports it explicitly.
    """

    def __init__(self, directory: str, platform: str, n_steps: int,
                 folds: Optional[int] = None):
        if folds is not None and folds < 2:
            raise ValueError(f"folds must be >= 2, got {folds}")
        if os.path.exists(manifest_path(directory)):
            raise CampaignStoreError(
                f"{directory} already holds a campaign manifest; "
                "use a fresh directory or remove it first")
        self.platform = platform
        self.n_steps = int(n_steps)
        self.folds = folds
        try:
            super().__init__(directory)
        except FileExistsError as exc:
            raise CampaignStoreError(
                f"{directory} holds trace shards but no manifest — the "
                "remains of an interrupted campaign write; remove the "
                "directory and rerun") from exc
        self._closed = False

    def write(self, trace: SimulationTrace) -> None:
        if self._closed:
            raise CampaignStoreError("writer is closed")
        if trace.platform != self.platform:
            raise CampaignStoreError(
                f"trace platform {trace.platform!r} does not match the "
                f"store's {self.platform!r}")
        if len(trace) != self.n_steps:
            raise CampaignStoreError(
                f"trace has {len(trace)} steps, store expects {self.n_steps}")
        super().write(trace)

    def abort(self) -> None:
        """Discard the write: no manifest is (or can later be) produced."""
        self._closed = True

    def __exit__(self, exc_type, exc, tb) -> None:
        # a failed campaign must not be finalised into a valid dataset
        if exc_type is not None:
            self.abort()
        else:
            self.close()

    def close(self) -> None:
        if self._closed:
            return
        _write_manifest(self.directory, self.platform, self.n_steps,
                        self.folds, _assign_folds(self.entries, self.folds))
        self._closed = True


# ----------------------------------------------------------------------
# shard reader
# ----------------------------------------------------------------------

#: a zip local file header: signature, 22 bytes the central directory
#: also holds, then the lengths of the file name and the extra field
_LOCAL_HEADER = struct.Struct("<4s22xHH")
#: byte offset of the header text of an npy 1.0 and 2.0 member, and the
#: format of its length field just before it
_NPY_HEADER_TEXT = {b"\x01\x00": (10, "<H"), b"\x02\x00": (12, "<I")}


@functools.lru_cache(maxsize=64)
def _npy_layout(header: bytes) -> Tuple[Tuple[int, ...], bool, np.dtype]:
    """``(shape, fortran_order, dtype)`` of one raw npy header (magic,
    version, length field and text), parsed as ``np.load`` parses it.

    Memoised on the bytes: a store's shards repeat a few dozen distinct
    headers, so a campaign parses each once.
    """
    fh = io.BytesIO(header)
    if np.lib.format.read_magic(fh) == (1, 0):
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
    else:
        shape, fortran_order, dtype = np.lib.format.read_array_header_2_0(fh)
    if dtype.hasobject:
        raise ValueError("object arrays cannot be loaded without pickle")
    return shape, fortran_order, dtype


def _npy_array(member: bytes) -> np.ndarray:
    """The array one npy 1.0 or 2.0 member holds, owning its bytes."""
    if member[6:8] not in _NPY_HEADER_TEXT:
        raise ValueError("member is not an npy 1.0 or 2.0 array")
    text_at, length_format = _NPY_HEADER_TEXT[member[6:8]]
    start = text_at + struct.unpack_from(length_format, member, 8)[0]
    shape, fortran_order, dtype = _npy_layout(member[:start])
    count = math.prod(shape)
    if len(member) - start != count * dtype.itemsize:
        raise ValueError(f"npy payload holds {len(member) - start} bytes, "
                         f"not the {count} x {dtype.itemsize} of {shape} "
                         f"{dtype}")
    # a copy, not a view: it drops the header and stays writable, as
    # np.load's arrays are
    array = np.frombuffer(member, dtype, count, start).copy()
    if fortran_order:
        return array.reshape(shape[::-1]).transpose()
    return array.reshape(shape)


def _read_shard(path: str) -> Dict[str, np.ndarray]:
    """The arrays of the npz shard at *path*, as ``np.load`` returns them.

    One read of the file: the member list comes from the zip's central
    directory, and each member is sliced from the buffer, checked against
    its local header and the directory's size and CRC-32, inflated and
    parsed.  Anything else raises the zip, zlib, struct or ``ValueError``
    that says what is wrong.
    """
    # a FIFO or device in a shard's place would block or never end
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise ValueError(f"{path} is not a regular file")
    with open(path, "rb") as fh:
        data = fh.read()
    with zipfile.ZipFile(io.BytesIO(data)) as archive:
        members = sorted(archive.infolist(), key=lambda m: m.header_offset)
    arrays: Dict[str, np.ndarray] = {}
    end = 0
    for info in members:
        name = info.filename
        # members may not overlap, which bounds what one shard inflates to
        if info.header_offset < end:
            raise zipfile.BadZipFile(f"member {name!r} overlaps another")
        signature, name_length, extra_length = _LOCAL_HEADER.unpack_from(
            data, info.header_offset)
        name_at = info.header_offset + _LOCAL_HEADER.size
        encoded = info.orig_filename.encode(
            "utf-8" if info.flag_bits & 0x800 else "cp437")
        if (signature != b"PK\x03\x04"
                or data[name_at:name_at + name_length] != encoded):
            raise zipfile.BadZipFile(
                f"local header of member {name!r} does not match the "
                "central directory")
        if info.flag_bits & 0x1:
            raise zipfile.BadZipFile(f"member {name!r} is encrypted")
        start = name_at + name_length + extra_length
        end = start + info.compress_size
        raw = data[start:end]
        if info.compress_type == zipfile.ZIP_DEFLATED:
            member = zlib.decompress(raw, -15)
        elif info.compress_type == zipfile.ZIP_STORED:
            member = raw
        else:
            raise zipfile.BadZipFile(
                f"member {name!r} uses compression method "
                f"{info.compress_type}")
        if (len(raw) != info.compress_size or len(member) != info.file_size
                or zlib.crc32(member) != info.CRC):
            raise zipfile.BadZipFile(
                f"member {name!r} does not match the size and CRC-32 the "
                "central directory records")
        if not name.endswith(".npy"):
            raise ValueError(f"member {name!r} is not an .npy file")
        arrays[name[:-4]] = _npy_array(member)
    return arrays


# ----------------------------------------------------------------------
# lazy reader
# ----------------------------------------------------------------------

#: top-level manifest keys the reader needs, and the keys of every entry
#: (those :func:`_trace_entry` writes)
_MANIFEST_KEYS = ("fingerprint", "platform", "n_steps", "traces")
_ENTRY_KEYS = frozenset(("file", "patient_id", "label", "dt", "fold",
                         "fault"))


def _manifest_defect(manifest: Mapping) -> Optional[str]:
    """Why *manifest* is not a well-formed campaign manifest (None if it
    is): a required key missing, a value of the wrong JSON type, or fold
    keys other than the writer's assignment."""
    missing = [key for key in _MANIFEST_KEYS if key not in manifest]
    if missing:
        return f"missing keys {missing}"
    if not isinstance(manifest["n_steps"], int):
        return "'n_steps' is not an integer"
    folds = manifest.get("folds")
    if folds is not None and (not isinstance(folds, int) or folds < 2):
        return f"'folds' is {folds!r}, not null or an integer >= 2"
    if not isinstance(manifest["traces"], list):
        return "'traces' is not a list"
    for i, entry in enumerate(manifest["traces"]):
        if not isinstance(entry, dict):
            return f"trace entry {i} is not an object"
        if not _ENTRY_KEYS <= entry.keys():
            return (f"trace entry {i} is missing keys "
                    f"{sorted(_ENTRY_KEYS - entry.keys())}")
        if not isinstance(entry["patient_id"], str):
            return f"trace entry {i}'s 'patient_id' is not a string"
        # nor does the fingerprint cover shard names: one naming a path
        # would load a shard from outside the store
        file = entry["file"]
        if (not isinstance(file, str) or os.path.basename(file) != file
                or file in ("", os.curdir, os.pardir)):
            return f"trace entry {i}'s 'file' {file!r} is not a bare file name"
    # the fingerprint does not cover the fold keys, so they are checked
    # against the writer's assignment of the entries as listed
    assigned = _assign_folds([{"patient_id": e["patient_id"], "fold": None}
                              for e in manifest["traces"]], folds)
    for i, (entry, expected) in enumerate(zip(manifest["traces"], assigned)):
        if entry["fold"] != expected["fold"]:
            return (f"trace entry {i} records fold {entry['fold']!r}, not "
                    "the writer's per-patient round-robin fold "
                    f"{expected['fold']!r}")
    return None


@dataclass
class DatasetStats:
    """Shard-load instrumentation of one :class:`TraceDataset`.

    ``max_resident`` is the high-water mark of simultaneously cached
    traces — the bounded-memory guarantee is ``max_resident <=
    cache_size`` no matter how large the campaign or how often it is
    iterated.
    """

    n_loads: int = 0
    cache_hits: int = 0
    evictions: int = 0
    max_resident: int = 0


class TraceDataset(SequenceABC):
    """Lazy, bounded-memory view of an on-disk campaign dataset.

    Indexing or iterating loads shards on demand; at most *cache_size*
    decoded traces are resident at any moment (LRU eviction), so memory is
    bounded by the window — never by campaign size — even across repeated
    passes.  All views created by :meth:`subset` / :meth:`by_patient` /
    :meth:`fold_split` share the parent's cache and :class:`DatasetStats`.
    Downstream ``workers=`` consumers chunk a dataset by index (each
    forked worker loads only its own shards) and the lock-step consumers
    (replay, mining) stack one group of traces at a time, so both keep the
    bounded-memory guarantee and return element-wise identical results to
    a serial in-memory pass.

    Opening validates the manifest eagerly (structure, schema version,
    shard format, fold keys, fingerprint consistency); shard problems —
    missing files, corrupted payloads, a shard whose identity or length
    disagrees with its manifest entry — surface as
    :class:`CampaignStoreError` at first access.
    """

    def __init__(self, directory: str, manifest: Mapping,
                 cache_size: int = DEFAULT_CACHE_SIZE):
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        if not isinstance(manifest, Mapping):
            raise CampaignStoreError(
                f"manifest at {directory} is not a JSON object")
        version = manifest.get("schema_version")
        if version != SCHEMA_VERSION:
            raise CampaignStoreError(
                f"dataset at {directory} has schema version {version!r}; "
                f"this reader supports {SCHEMA_VERSION}")
        defect = _manifest_defect(manifest)
        if defect is not None:
            raise CampaignStoreError(
                f"malformed manifest at {directory}: {defect}")
        # manifests written before the format was recorded lack the key
        shard_format = manifest.get("shard_format", SHARD_FORMAT)
        if shard_format != SHARD_FORMAT:
            raise CampaignStoreError(
                f"dataset at {directory} uses shard format "
                f"{shard_format!r}; this reader supports {SHARD_FORMAT!r}")
        self.directory = directory
        self.platform: str = manifest["platform"]
        self.n_steps: int = manifest["n_steps"]
        self.folds: Optional[int] = manifest.get("folds")
        self._entries: List[dict] = list(manifest["traces"])
        if len(self._entries) != manifest.get("n_traces",
                                              len(self._entries)):
            raise CampaignStoreError(
                f"manifest at {directory} lists "
                f"{manifest.get('n_traces')} traces but carries "
                f"{len(self._entries)} entries")
        self.fingerprint: str = manifest["fingerprint"]
        try:
            recomputed = campaign_fingerprint(
                self.platform, self.n_steps,
                (_entry_cell(e) for e in self._entries))
        except (KeyError, TypeError, ValueError) as exc:
            raise CampaignStoreError(
                f"malformed manifest at {directory}: a trace entry's "
                f"fault or dt does not parse ({exc!r})") from exc
        if recomputed != self.fingerprint:
            raise CampaignStoreError(
                f"manifest fingerprint mismatch at {directory}: the trace "
                "index does not hash to the recorded fingerprint "
                "(manifest edited or corrupted)")
        self.cache_size = cache_size
        self._cache: "OrderedDict[int, SimulationTrace]" = OrderedDict()
        self.stats = DatasetStats()

    @classmethod
    def open(cls, directory: str,
             cache_size: int = DEFAULT_CACHE_SIZE) -> "TraceDataset":
        """Open the dataset written to *directory* (manifest required)."""
        path = manifest_path(directory)
        if not os.path.exists(path):
            raise CampaignStoreError(
                f"no campaign manifest at {path}; was the writer closed?")
        # ValueError covers both ways damaged bytes fail to decode:
        # json.JSONDecodeError and UnicodeDecodeError
        try:
            with open(path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (OSError, ValueError) as exc:
            raise CampaignStoreError(
                f"unreadable campaign manifest at {path}: {exc}") from exc
        return cls(directory, manifest, cache_size=cache_size)

    # -- core loading ---------------------------------------------------

    def _load(self, index: int) -> SimulationTrace:
        cached = self._cache.get(index)
        if cached is not None:
            self._cache.move_to_end(index)
            self.stats.cache_hits += 1
            return cached
        entry = self._entries[index]
        path = os.path.join(self.directory, entry["file"])
        if not os.path.exists(path):
            raise CampaignStoreError(
                f"missing shard {entry['file']} (trace {index}) in "
                f"{self.directory}")
        trace = self._decode(path, entry, index)
        self.stats.n_loads += 1
        self._cache[index] = trace
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)
            self.stats.evictions += 1
        self.stats.max_resident = max(self.stats.max_resident,
                                      len(self._cache))
        return trace

    def _decode(self, path: str, entry: Mapping,
                index: int) -> SimulationTrace:
        """Decode one self-describing npz shard and cross-check its whole
        recorded identity — platform, step count and every manifest-entry
        field but the fold — against the manifest."""
        # besides the zip, npy and key errors, damaged bytes surface as a
        # bad deflate stream (zlib.error), an offset past the end
        # (struct.error) or a clobbered version field (NotImplementedError)
        try:
            trace = trace_from_arrays(_read_shard(path))
        except (zipfile.BadZipFile, zlib.error, struct.error, OSError,
                ValueError, KeyError, NotImplementedError) as exc:
            raise CampaignStoreError(
                f"corrupted shard {entry['file']} (trace {index}) in "
                f"{self.directory}: {exc}") from exc
        recorded = _trace_entry(trace, entry["file"])
        if (trace.platform != self.platform or len(trace) != self.n_steps
                or recorded != dict(entry, fold=None)):
            raise CampaignStoreError(
                f"shard {entry['file']} holds {trace.platform}/"
                f"{trace.patient_id}/{trace.label!r} over {len(trace)} "
                f"steps but the manifest expects {self.platform}/"
                f"{entry['patient_id']}/{entry['label']!r} over "
                f"{self.n_steps} steps (shards shuffled or overwritten)")
        return trace

    # -- sequence protocol ----------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return self.subset(range(*index.indices(len(self))))
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        return self._load(index)

    def __iter__(self):
        for i in range(len(self)):
            yield self._load(i)

    # -- metadata-only queries (no shard loads) -------------------------

    @property
    def patient_ids(self) -> Tuple[str, ...]:
        """Distinct patient ids, in first-appearance (plan) order."""
        return tuple(dict.fromkeys(e["patient_id"] for e in self._entries))

    def entry(self, index: int) -> Mapping:
        """The manifest entry of trace *index* (metadata, no load)."""
        return dict(self._entries[index])

    def indices(self, patient_id: Optional[str] = None,
                fold: Optional[int] = None) -> List[int]:
        """Trace indices matching the given patient and/or fold key."""
        out = []
        for i, e in enumerate(self._entries):
            if patient_id is not None and e["patient_id"] != patient_id:
                continue
            if fold is not None and e["fold"] != fold:
                continue
            out.append(i)
        return out

    # -- lazy views -----------------------------------------------------

    def subset(self, indices: Iterable[int]) -> "TraceDatasetView":
        """A lazy view over *indices*, sharing this dataset's cache."""
        return TraceDatasetView(self, tuple(indices))

    def by_patient(self, patient_id: str) -> "TraceDatasetView":
        return self.subset(self.indices(patient_id=patient_id))

    def fold_split(self, fold: int) -> Tuple["TraceDatasetView",
                                             "TraceDatasetView"]:
        """(train, test) views for one recorded cross-validation fold."""
        if self.folds is None:
            raise CampaignStoreError(
                "dataset was written without fold assignments")
        if not 0 <= fold < self.folds:
            raise ValueError(f"fold must be in [0, {self.folds}), got {fold}")
        test = [i for i, e in enumerate(self._entries) if e["fold"] == fold]
        train = [i for i, e in enumerate(self._entries) if e["fold"] != fold]
        return self.subset(train), self.subset(test)

    def __repr__(self) -> str:
        return (f"TraceDataset({self.directory!r}, {len(self)} traces, "
                f"platform={self.platform!r}, cache_size={self.cache_size})")


class TraceDatasetView(SequenceABC):
    """An index-selected lazy view of a :class:`TraceDataset`."""

    def __init__(self, dataset: TraceDataset, indices: Tuple[int, ...]):
        self._dataset = dataset
        self._indices = indices

    def __len__(self) -> int:
        return len(self._indices)

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return TraceDatasetView(self._dataset, self._indices[index])
        return self._dataset._load(self._indices[index])

    def __iter__(self):
        for i in self._indices:
            yield self._dataset._load(i)

    def subset(self, indices: Iterable[int]) -> "TraceDatasetView":
        """A lazy sub-view (indices are relative to *this* view)."""
        return TraceDatasetView(
            self._dataset, tuple(self._indices[i] for i in indices))

    @property
    def stats(self) -> DatasetStats:
        return self._dataset.stats

    def __repr__(self) -> str:
        return (f"TraceDatasetView({len(self)} of "
                f"{len(self._dataset)} traces)")


# ----------------------------------------------------------------------
# trace -> tick-stream adapter (recorded campaign as live traffic)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TraceTick:
    """One lock-step cycle of a recorded campaign, viewed as live traffic.

    The raw per-user channel vectors (shape ``(B,)``, one entry per
    trace-as-user) a streaming ingest would deliver at this cycle: the
    clean CGM reading, the loop-side IOB estimates and the
    post-fault-injection command.  Deliberately *excludes* the BG rate —
    a live service never receives finite differences on the wire, it
    computes them from consecutive ticks, which is exactly what
    :class:`repro.serve.MonitorService` does (and what the serving parity
    contract checks against :func:`~repro.simulation.features.
    context_matrix`).
    """

    step: int
    t: float
    cgm: np.ndarray
    iob: np.ndarray
    iob_rate: np.ndarray
    rate: np.ndarray
    bolus: np.ndarray
    action: np.ndarray


def iter_trace_ticks(traces) -> Iterable[TraceTick]:
    """Yield a recorded campaign as a lock-step tick stream.

    Adapts a sequence of equal-length, equal-cadence traces (a
    :class:`TraceDataset`, a list — anything indexable) into the per-cycle
    column vectors an online service ingests: tick ``s`` carries
    ``trace.cgm[s]`` etc. of every trace, stacked in input order.  This is
    the replay-from-log bridge between recorded campaign stores and
    :meth:`repro.serve.MonitorService.process`.

    Raises ``ValueError`` on zero traces, ragged lengths, or traces that
    disagree on the time grid (lock-step ingestion needs one shared
    clock).
    """
    traces = list(traces)
    if not traces:
        raise ValueError("cannot stream ticks from zero traces")
    lengths = {len(trace) for trace in traces}
    if len(lengths) != 1:
        raise ValueError(
            f"all traces in a tick stream must share one length, got "
            f"{sorted(lengths)}")
    t_grid = traces[0].t
    for trace in traces[1:]:
        if not np.array_equal(trace.t, t_grid):
            raise ValueError(
                "traces disagree on the time grid; a lock-step tick "
                "stream needs one shared clock")
    channels = [np.stack([getattr(trace, field) for trace in traces], axis=1)
                for field in ("cgm", "iob", "iob_rate", "cmd_rate",
                              "cmd_bolus", "action")]
    cgm, iob, iob_rate, rate, bolus, action = channels
    for step in range(int(lengths.pop())):
        yield TraceTick(step=step, t=float(t_grid[step]), cgm=cgm[step],
                        iob=iob[step], iob_rate=iob_rate[step],
                        rate=rate[step], bolus=bolus[step],
                        action=action[step])
