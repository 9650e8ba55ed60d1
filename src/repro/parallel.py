"""Generic forked-pool chunk protocol.

PR 1 built the parallel campaign executor around one idea: cut a
deterministic work list into contiguous chunks, fork a ``multiprocessing``
pool so unpicklable state (monitor factories, trained models, lazy
datasets) is *inherited* rather than serialised, and collect chunk results
strictly in submission order from a bounded in-flight window.  This module
hoists that machinery out of :mod:`repro.simulation.executor` so every
fan-out in the code base — campaign simulation, monitor replay, robustness
-sample mining — shares the exact same protocol and therefore the exact
same guarantee: worker count changes wall-clock time, never output.

It sits below both :mod:`repro.core` and :mod:`repro.simulation` and
imports neither, so either layer can parallelise without cycles.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import warnings
from collections import deque
from typing import (Any, Callable, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

__all__ = ["shard_indices", "partition_ranges", "ranges_defect",
           "fork_map_chunks", "resolve_workers", "LOCKSTEP_WIDTH",
           "lockstep_width", "iter_equal_length_groups"]


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a ``workers=`` argument (None: ``REPRO_WORKERS`` env, or 1)."""
    if workers is None:
        workers = int(os.environ.get("REPRO_WORKERS", "1"))
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


#: Lock-step width: how many simulation runs, replayed traces or mined
#: traces advance together as one ``(n_steps, B)`` batch.  Every batched
#: path reads it at call time, so tests can monkeypatch it; no public
#: function, config field, CLI flag or environment variable sets it.  The
#: paths are element-wise identical to their single-run references at any
#: width, so it trades only speed against the memory one batch holds: 24
#: keeps a streamed campaign's resident batch to a few MB while taking
#: most of the per-call speedup (wider batches grow both together).
LOCKSTEP_WIDTH = 24


def lockstep_width() -> int:
    """The current :data:`LOCKSTEP_WIDTH` (validated)."""
    width = LOCKSTEP_WIDTH
    if width < 1:
        raise ValueError(f"LOCKSTEP_WIDTH must be >= 1, got {width}")
    return width


def iter_equal_length_groups(items: Any) -> Iterator[list]:
    """Group a stream into consecutive equal-``len()`` lock-step batches.

    The shared grouping rule of every lock-step batched path (monitor
    replay, robustness-sample mining): groups hold at most
    :data:`LOCKSTEP_WIDTH` items and never mix lengths — a length change
    closes the current group — so concatenating the groups always
    reproduces the input order and every group stacks into one
    rectangular batch.  Streaming: at most one group is resident at a
    time.  Living here (below both :mod:`repro.core` and
    :mod:`repro.simulation`) keeps the parity-critical boundary rule in
    exactly one place.
    """
    size = lockstep_width()
    group: list = []
    for item in items:
        if group and (len(group) >= size or len(item) != len(group[0])):
            yield group
            group = []
        group.append(item)
    if group:
        yield group


def shard_indices(n: int, n_chunks: int) -> List[range]:
    """Cut ``range(n)`` into at most *n_chunks* contiguous index ranges.

    Boundaries depend only on ``(n, n_chunks)``, so sharding is
    deterministic; concatenating the ranges always reproduces ``range(n)``
    and chunk sizes differ by at most one.
    """
    if n_chunks < 1:
        raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
    n_chunks = min(n_chunks, n) or 1
    base, extra = divmod(n, n_chunks)
    chunks: List[range] = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        chunks.append(range(start, start + size))
        start += size
    return chunks


def partition_ranges(n: int, n_chunks: int) -> List[Tuple[int, int]]:
    """:func:`shard_indices` as half-open ``(start, stop)`` tuples.

    The wire format of the chunk protocol: a ``(start, stop)`` pair is
    what crosses a process or host boundary (a distributed campaign
    worker's command line), so it must be plain data, deterministic in
    ``(n, n_chunks)`` alone, and independent of which host executes it —
    retrying a range on another machine re-derives the identical work
    slice.  Empty ranges are dropped, so ``n == 0`` partitions to ``[]``.
    """
    return [(r.start, r.stop) for r in shard_indices(n, n_chunks)
            if len(r)]


def ranges_defect(ranges: Iterable[Tuple[int, int]],
                  n: int) -> Optional[str]:
    """Explain how *ranges* fail to tile ``range(n)``; ``None`` if they do.

    The shared acceptance rule of every range-merging consumer (the
    distributed coordinator and the manifest merge): ranges must be
    well-formed half-open slices of ``[0, n)``, mutually disjoint, and
    covering.  Returns a human-readable defect description — naming the
    first overlap or gap — or ``None`` when the ranges are a perfect
    tiling.  Exact duplicates count as overlap; deduplicate first if
    duplicates are legitimate (idempotent re-delivery).
    """
    spans = sorted((int(a), int(b)) for a, b in ranges)
    for a, b in spans:
        if not 0 <= a < b <= n:
            return f"range [{a}, {b}) is not a well-formed slice of [0, {n})"
    cursor = 0
    for a, b in spans:
        if a < cursor:
            return f"ranges overlap on [{a}, {min(b, cursor)})"
        if a > cursor:
            return f"range [{cursor}, {a}) is missing"
        cursor = b
    if cursor != n:
        return f"range [{cursor}, {n}) is missing"
    return None


#: fork-inherited state for pool workers — set immediately before the pool
#: forks, cleared right after; never pickled, so unpicklable chunk
#: functions (closures over monitors, datasets, plans) travel for free.
#: The lock serialises the assign-then-fork critical section so two
#: threads fanning out concurrently can neither fork the other's work
#: list nor fork None.
_FORK_STATE: Optional[tuple] = None
_FORK_STATE_LOCK = threading.Lock()


def _fork_worker(chunk_index: int):
    fn, chunks = _FORK_STATE
    return fn(chunks[chunk_index])


def fork_map_chunks(fn: Callable[[Any], Any], chunks: Sequence[Any],
                    workers: int, start_method: str = "fork"
                    ) -> Iterator[Any]:
    """Yield ``fn(chunk)`` for every chunk, strictly in chunk order.

    With ``workers > 1`` and a platform that supports *start_method*, the
    chunks are fanned out over a forked pool; *fn* and the chunks are
    inherited by the workers (never pickled) while each **result** must be
    picklable.  Results are collected from a bounded window of in-flight
    tasks — at most ``2 * workers`` finished-but-unread chunks sit in the
    parent — so a slow consumer cannot make memory pile up and the yielded
    stream is element-wise identical to the serial loop.
    """
    chunks = list(chunks)
    if workers <= 1 or len(chunks) <= 1:
        for chunk in chunks:
            yield fn(chunk)
        return
    if start_method not in multiprocessing.get_all_start_methods():
        warnings.warn(
            f"start method {start_method!r} unavailable; falling back to "
            "serial execution", RuntimeWarning, stacklevel=3)
        for chunk in chunks:
            yield fn(chunk)
        return

    global _FORK_STATE
    ctx = multiprocessing.get_context(start_method)
    # fork pools spawn their workers eagerly in the constructor, so the
    # shared state only needs to exist across the assign-then-fork window
    with _FORK_STATE_LOCK:
        _FORK_STATE = (fn, chunks)
        try:
            pool = ctx.Pool(processes=min(workers, len(chunks)))
        finally:
            _FORK_STATE = None
    with pool:
        window = 2 * workers
        pending: deque = deque()
        indices = iter(range(len(chunks)))
        for i in itertools.islice(indices, window):
            pending.append(pool.apply_async(_fork_worker, (i,)))
        while pending:
            result = pending.popleft().get()
            for i in itertools.islice(indices, 1):
                pending.append(pool.apply_async(_fork_worker, (i,)))
            yield result
