"""Crash-safe persistence for the online monitor service.

A monitor service that forgets its per-user BG memory, alert dedup
timers and monitor state on restart silently stops protecting
every user on the box until that state builds up again.  This module gives
:class:`~repro.serve.service.MonitorService` the two classic
write-ahead-logging primitives that make restarts invisible:

- **a tick journal** (:class:`TickJournal`): an append-only,
  CRC32-framed, fsync'd record stream of every state-changing input
  (ticks, explicit connects/disconnects).  Records are framed as
  ``length | crc32 | payload`` with a per-segment monotone sequence
  number inside the payload, so a *torn or truncated tail* (the record a
  crash interrupted mid-write) is detected, reported and cleanly
  discarded — while corruption *before* the tail (bit rot, an operator
  truncating the wrong file) is never silently absorbed: it raises
  :class:`JournalCorruptError`.
- **atomic snapshots** (:func:`write_snapshot` / :func:`read_snapshot`):
  the full service state (slot map, BG memory, alert streams, per-slot
  monitor state arrays, tick/degraded-mode counters) written
  to a temporary file, fsync'd, then :func:`os.replace`-d into place —
  a snapshot either exists completely or not at all.  Half-written or
  corrupted snapshot files raise :class:`SnapshotError` on load.

Recovery (:meth:`~repro.serve.service.MonitorService.recover`) composes
the two: load the newest snapshot, replay the journal records written
after it through the ordinary ``process()`` path, and truncate any torn
tail so appending can resume.  Because ``process`` is a deterministic
function of (state, tick), the recovered service's subsequent alert
stream is **element-wise identical** to an uninterrupted run — the same
parity discipline every other scaling mechanism in this repo honours
(see ``docs/monitor_service.md``).  The journal is written *ahead* of
the in-memory state change; combined with the service's stale-timestamp
quarantine this makes tick delivery idempotent: a tick that was
journaled but never acknowledged is applied by replay, and the sender's
retry is quarantined instead of double-counted.
"""

from __future__ import annotations

import json
import os
import pickle
import struct
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = [
    "PersistenceError", "JournalCorruptError", "SnapshotError",
    "TickJournal", "JournalReadResult", "read_journal",
    "write_snapshot", "read_snapshot", "RecoveryReport",
    "list_segments", "list_snapshots", "segment_path", "snapshot_path",
    "CONFIG_NAME", "REGISTRY_DIRNAME", "PERSIST_SCHEMA_VERSION",
]

#: bump when the journal/snapshot payload layout changes — old state
#: directories must be refused loudly, never half-understood
PERSIST_SCHEMA_VERSION = 1

CONFIG_NAME = "service.json"
REGISTRY_DIRNAME = "registry"

_JOURNAL_MAGIC = b"RPWJ"
_SNAPSHOT_MAGIC = b"RPSS"
_HEADER = struct.Struct("<4sI")          # magic, schema version
_FRAME = struct.Struct("<II")            # payload length, crc32(payload)
_SNAP_HEADER = struct.Struct("<4sIQI")   # magic, version, length, crc32


class PersistenceError(RuntimeError):
    """Base of the crash-safety error family: journal, snapshot or state
    directory cannot be written, read or trusted."""


class JournalCorruptError(PersistenceError):
    """A journal segment is corrupted *before* its tail — data that was
    once durable can no longer be read back, which recovery must report
    rather than silently skip."""


class SnapshotError(PersistenceError):
    """A snapshot file is missing, truncated, or fails its checksum."""


# ----------------------------------------------------------------------
# directory layout
# ----------------------------------------------------------------------

def segment_path(directory: str, seq: int) -> str:
    """Journal segment *seq* of a state directory."""
    return os.path.join(directory, f"journal-{seq:08d}.wal")


def snapshot_path(directory: str, seq: int) -> str:
    """Snapshot that precedes journal segment *seq*."""
    return os.path.join(directory, f"snapshot-{seq:08d}.ckpt")


def list_segments(directory: str) -> List[Tuple[int, str]]:
    """``(seq, path)`` of every journal segment, ascending."""
    return _list(directory, "journal-", ".wal")


def list_snapshots(directory: str) -> List[Tuple[int, str]]:
    """``(seq, path)`` of every snapshot, ascending."""
    return _list(directory, "snapshot-", ".ckpt")


def _list(directory: str, prefix: str, suffix: str) -> List[Tuple[int, str]]:
    found = []
    for name in os.listdir(directory):
        if name.startswith(prefix) and name.endswith(suffix):
            stem = name[len(prefix):-len(suffix)]
            if stem.isdigit():
                found.append((int(stem), os.path.join(directory, name)))
    return sorted(found)


def _fsync_directory(directory: str) -> None:
    """Durably record a rename/creation in the directory entry itself."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # platforms without directory fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# ----------------------------------------------------------------------
# the write-ahead tick journal
# ----------------------------------------------------------------------

class TickJournal:
    """One append-only journal segment with CRC-framed records.

    Every :meth:`append` writes ``length | crc32 | pickle((seq, kind,
    payload))`` in one call and (by default) ``fdatasync``-s, so a
    record either survives a crash whole or is detected as a torn tail
    on the next recovery.  Callers overlapping durability with
    computation append with ``sync=False`` (the bytes reach the kernel
    immediately and background writeback starts) and call :meth:`sync`
    before acknowledging the record — write-ahead ordering is preserved
    as long as no acknowledgement outruns the sync.  Opening an
    existing segment validates the header and resumes appending after
    its last valid record — callers must first run
    :func:`read_journal`, which truncates a torn tail in place.
    """

    def __init__(self, path: str, fsync: bool = True,
                 next_seq: Optional[int] = None):
        self.path = path
        self.fsync = bool(fsync)
        exists = os.path.exists(path) and os.path.getsize(path) > 0
        self._fh = open(path, "ab")
        if not exists:
            self._fh.write(_HEADER.pack(_JOURNAL_MAGIC,
                                        PERSIST_SCHEMA_VERSION))
            self._sync()
            self._seq = 0
        else:
            if next_seq is None:
                result = read_journal(path)
                next_seq = result.next_seq
            self._seq = int(next_seq)

    @property
    def next_seq(self) -> int:
        """Sequence number the next appended record will carry."""
        return self._seq

    def append(self, kind: str, payload: object, sync: bool = True) -> None:
        """Append one ``(kind, payload)`` record, durable by default.

        With ``sync=False`` the record is flushed to the kernel but not
        yet to stable storage — the caller must :meth:`sync` before
        acknowledging it.
        """
        if self._fh.closed:
            raise PersistenceError(f"journal {self.path} is closed")
        blob = pickle.dumps((self._seq, kind, payload),
                            protocol=pickle.HIGHEST_PROTOCOL)
        # one write call per record: frame + payload concatenated, so a
        # crash can tear at most the single append in flight
        self._fh.write(_FRAME.pack(len(blob), zlib.crc32(blob)) + blob)
        if sync:
            self._sync()
        else:
            self._fh.flush()
        self._seq += 1

    def sync(self) -> None:
        """Force every appended record to stable storage."""
        if self._fh.closed:
            raise PersistenceError(f"journal {self.path} is closed")
        self._sync()

    def _sync(self) -> None:
        self._fh.flush()
        if self.fsync:
            if hasattr(os, "fdatasync"):
                os.fdatasync(self._fh.fileno())
            else:  # pragma: no cover - non-POSIX
                os.fsync(self._fh.fileno())

    def close(self) -> None:
        if not self._fh.closed:
            self._sync()
            self._fh.close()

    def __enter__(self) -> "TickJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass(frozen=True)
class JournalReadResult:
    """Everything :func:`read_journal` learned about one segment."""

    records: List[Tuple[str, object]]
    #: sequence number the next append to this segment must carry
    next_seq: int
    #: file offset just past the last valid record (truncation point)
    valid_end: int
    #: bytes of torn/truncated tail discarded past ``valid_end``
    torn_tail_bytes: int


def read_journal(path: str, truncate_tail: bool = False
                 ) -> JournalReadResult:
    """Read every valid record of one journal segment.

    A record that the file ends inside — or whose checksum fails *and*
    whose frame extends exactly to the end of the file — is a **torn
    tail**: the crash interrupted its write, the service never
    acknowledged it, so it is discarded (and physically truncated when
    ``truncate_tail`` is set, so appending can safely resume).  A
    checksum failure with more bytes *after* the frame, a bad header, or
    a sequence-number gap means data that was once durable is gone:
    :class:`JournalCorruptError`.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise JournalCorruptError(f"unreadable journal {path}: {exc}") from exc
    if len(data) < _HEADER.size:
        raise JournalCorruptError(
            f"journal {path} is shorter than its header "
            f"({len(data)} < {_HEADER.size} bytes)")
    magic, version = _HEADER.unpack_from(data, 0)
    if magic != _JOURNAL_MAGIC:
        raise JournalCorruptError(f"journal {path} has bad magic {magic!r}")
    if version != PERSIST_SCHEMA_VERSION:
        raise JournalCorruptError(
            f"journal {path} has schema {version}, this build reads "
            f"{PERSIST_SCHEMA_VERSION}")

    records: List[Tuple[str, object]] = []
    offset = _HEADER.size
    valid_end = offset
    expected_seq = 0
    torn = 0
    while offset < len(data):
        if offset + _FRAME.size > len(data):
            torn = len(data) - valid_end          # truncated frame header
            break
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        end = start + length
        if end > len(data):
            torn = len(data) - valid_end          # truncated payload
            break
        blob = data[start:end]
        if zlib.crc32(blob) != crc:
            if end == len(data):
                torn = len(data) - valid_end      # torn final record
                break
            raise JournalCorruptError(
                f"journal {path}: checksum mismatch at offset {offset} "
                f"with {len(data) - end} bytes of later records — "
                "mid-journal corruption, not a torn tail")
        try:
            seq, kind, payload = pickle.loads(blob)
        except Exception as exc:
            if end == len(data):
                torn = len(data) - valid_end
                break
            raise JournalCorruptError(
                f"journal {path}: undecodable record at offset {offset} "
                f"with later records present: {exc}") from exc
        if seq != expected_seq:
            raise JournalCorruptError(
                f"journal {path}: sequence gap at offset {offset} "
                f"(record {seq}, expected {expected_seq}) — records were "
                "lost or reordered")
        records.append((kind, payload))
        expected_seq += 1
        offset = end
        valid_end = end
    if torn and truncate_tail:
        with open(path, "r+b") as fh:
            fh.truncate(valid_end)
            fh.flush()
            os.fsync(fh.fileno())
    return JournalReadResult(records=records, next_seq=expected_seq,
                             valid_end=valid_end, torn_tail_bytes=torn)


# ----------------------------------------------------------------------
# atomic snapshots
# ----------------------------------------------------------------------

def write_snapshot(path: str, state: object) -> None:
    """Atomically persist *state* (any picklable object) to *path*.

    Written to ``path + ".tmp"`` first, fsync'd, then renamed over the
    final name and the directory entry fsync'd — a crash at any point
    leaves either the previous snapshot or the complete new one, never a
    half-written file under the final name.
    """
    blob = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(_SNAP_HEADER.pack(_SNAPSHOT_MAGIC, PERSIST_SCHEMA_VERSION,
                                   len(blob), zlib.crc32(blob)))
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _fsync_directory(os.path.dirname(path) or ".")


def read_snapshot(path: str) -> object:
    """Load and verify a snapshot written by :func:`write_snapshot`.

    Raises :class:`SnapshotError` on a missing file, bad magic or
    schema, truncation, or checksum mismatch — a snapshot is either
    verifiably whole or refused.
    """
    try:
        with open(path, "rb") as fh:
            header = fh.read(_SNAP_HEADER.size)
            if len(header) < _SNAP_HEADER.size:
                raise SnapshotError(
                    f"snapshot {path} is shorter than its header")
            magic, version, length, crc = _SNAP_HEADER.unpack(header)
            if magic != _SNAPSHOT_MAGIC:
                raise SnapshotError(
                    f"snapshot {path} has bad magic {magic!r}")
            if version != PERSIST_SCHEMA_VERSION:
                raise SnapshotError(
                    f"snapshot {path} has schema {version}, this build "
                    f"reads {PERSIST_SCHEMA_VERSION}")
            blob = fh.read(length + 1)
    except OSError as exc:
        raise SnapshotError(f"unreadable snapshot {path}: {exc}") from exc
    if len(blob) != length:
        raise SnapshotError(
            f"snapshot {path} is truncated or padded "
            f"({len(blob)} payload bytes, header promised {length})")
    if zlib.crc32(blob) != crc:
        raise SnapshotError(f"snapshot {path} fails its checksum — the "
                            "file is corrupted")
    try:
        return pickle.loads(blob)
    except Exception as exc:
        raise SnapshotError(
            f"snapshot {path} passed its checksum but cannot be "
            f"decoded: {exc}") from exc


# ----------------------------------------------------------------------
# service config + recovery report
# ----------------------------------------------------------------------

def write_config(directory: str, config: Dict[str, object]) -> None:
    """Atomically write the service-construction config file."""
    path = os.path.join(directory, CONFIG_NAME)
    blob = json.dumps({"schema": PERSIST_SCHEMA_VERSION, **config},
                      indent=1, sort_keys=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _fsync_directory(directory)


def read_config(directory: str) -> Dict[str, object]:
    path = os.path.join(directory, CONFIG_NAME)
    if not os.path.isfile(path):
        raise PersistenceError(
            f"no service config at {path} — not a service state directory")
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise PersistenceError(
            f"unreadable service config {path}: {exc}") from exc
    if config.get("schema") != PERSIST_SCHEMA_VERSION:
        raise PersistenceError(
            f"service config schema {config.get('schema')!r} != "
            f"{PERSIST_SCHEMA_VERSION}")
    return config


@dataclass(frozen=True)
class RecoveryReport:
    """What one :meth:`MonitorService.recover` call found and did."""

    directory: str
    #: journal segment sequence the recovered snapshot preceded
    #: (-1 when no snapshot existed and replay started from scratch)
    snapshot_seq: int
    #: ticks the snapshot already contained
    snapshot_ticks: int
    #: journal segments replayed after the snapshot
    segments_replayed: int
    #: journal records replayed (ticks + connects + disconnects)
    records_replayed: int
    #: tick records among the replayed records
    ticks_replayed: int
    #: torn/truncated tail bytes discarded (and truncated) per segment
    torn_tail_bytes: int = 0

    def summary(self) -> str:
        source = (f"snapshot {self.snapshot_seq} ({self.snapshot_ticks} "
                  "ticks)" if self.snapshot_seq >= 0 else "no snapshot")
        tail = (f", discarded a {self.torn_tail_bytes}-byte torn tail"
                if self.torn_tail_bytes else "")
        return (f"recovered from {source} + {self.ticks_replayed} journaled "
                f"tick(s) across {self.segments_replayed} segment(s){tail}")
