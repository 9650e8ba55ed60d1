"""The one fan-out rule: fixed-size chunks, in-process or in a forked pool.

Every ``workers=`` consumer in the code base — campaign simulation,
monitor replay, robustness-sample mining, ML dataset extraction, model
training and per-fold threshold learning — runs through
:func:`map_chunks`.  It cuts a deterministic work list into consecutive
chunks of a fixed size, which are the same chunks at every worker count,
and either runs them in-process or fans them over a forked
``multiprocessing`` pool, where unpicklable state (monitor factories,
trained models, lazy datasets) is *inherited* rather than serialised.
Results come back strictly in chunk order, so worker count changes
wall-clock time, never output.

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
from typing import Any, Callable, Iterable, Iterator, Optional

__all__ = ["map_chunks", "resolve_workers", "LOCKSTEP_WIDTH",
           "lockstep_width", "iter_equal_length_groups"]


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a ``workers=`` argument (None: ``REPRO_WORKERS`` env, or 1)."""
    if workers is None:
        raw = os.environ.get("REPRO_WORKERS", "1")
        try:
            workers = int(raw)
        except ValueError:
            workers = None
        if workers is None or workers < 1:
            raise ValueError(
                f"REPRO_WORKERS must be an integer >= 1, got {raw!r}")
        return workers
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


#: Lock-step width: how many simulation runs, replayed traces or mined
#: traces advance together as one ``(n_steps, B)`` batch.  Every batched
#: path reads it at call time, so tests can monkeypatch it; no public
#: function, config field, CLI flag or environment variable sets it.  The
#: paths give byte-identical results at any width (a simulated run or a
#: replayed trace does not depend on its batch), so it trades only speed
#: against the memory one batch holds: 24 keeps a streamed campaign's
#: resident batch to a few MB while taking most of the per-call speedup
#: (wider batches grow both together).
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


#: fork-inherited state for pool workers — set immediately before the pool
#: forks, cleared right after; never pickled, so unpicklable chunk
#: functions (closures over monitors, datasets, plans) travel for free.
#: The lock serialises the assign-then-fork critical section so two
#: threads fanning out concurrently can neither fork the other's work
#: list nor fork None.
_FORK_STATE: Optional[tuple] = None
_FORK_STATE_LOCK = threading.Lock()


def _fork_worker(start: int):
    fn, items, size = _FORK_STATE
    return fn([items[i] for i in range(start, min(start + size, len(items)))])


def map_chunks(fn: Callable[[list], Any], items: Iterable[Any], size: int,
               workers: Optional[int] = None) -> Iterator[Any]:
    """Yield ``fn(chunk)`` for consecutive chunks of *size* items, in order.

    A chunk is a list of the next *size* items (only the last may be
    shorter), and the chunks are the same at every worker count — serial
    and pool runs execute identical work by construction.

    In-process (*workers* resolves to 1 through :func:`resolve_workers`)
    any iterable is streamed one chunk at a time.  With ``workers > 1``
    the chunks run on a forked pool: *items* is indexed — other iterables
    are materialised first — so each worker builds its own chunk (a lazy
    :class:`~repro.simulation.store.TraceDataset` loads only that chunk's
    shards), and *fn* and *items* are inherited, never pickled; each
    **result** must pickle.  Results are read strictly in chunk order from
    a window of at most ``2 * workers`` in-flight chunks, so a slow
    consumer cannot pile up memory in the parent.  Without the fork start
    method the chunks run in-process with a :class:`RuntimeWarning`.
    """
    if size < 1:
        raise ValueError(f"chunk size must be >= 1, got {size}")
    workers = resolve_workers(workers)
    if workers > 1 and "fork" not in multiprocessing.get_all_start_methods():
        warnings.warn("start method 'fork' unavailable; falling back to "
                      "serial execution", RuntimeWarning, stacklevel=2)
        workers = 1
    if workers > 1 and not hasattr(items, "__getitem__"):
        items = list(items)
    if workers <= 1 or len(items) <= size:
        iterator = iter(items)
        while chunk := list(itertools.islice(iterator, size)):
            yield fn(chunk)
        return

    global _FORK_STATE
    starts = range(0, len(items), size)
    ctx = multiprocessing.get_context("fork")
    # fork pools spawn their workers eagerly in the constructor, so the
    # shared state only needs to exist across the assign-then-fork window
    with _FORK_STATE_LOCK:
        _FORK_STATE = (fn, items, size)
        try:
            pool = ctx.Pool(processes=min(workers, len(starts)))
        finally:
            _FORK_STATE = None
    with pool:
        pending: deque = deque()
        queued = iter(starts)
        for start in itertools.islice(queued, 2 * workers):
            pending.append(pool.apply_async(_fork_worker, (start,)))
        while pending:
            result = pending.popleft().get()
            for start in itertools.islice(queued, 1):
                pending.append(pool.apply_async(_fork_worker, (start,)))
            yield result
