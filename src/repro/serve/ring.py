"""Columnar per-user ring buffers for context history.

The serving layer keeps, for every connected user, a bounded window of the
most recent context rows (the time stamp, the raw action code and the
continuous :data:`~repro.simulation.features.FEATURE_NAMES` channels).  One
naive deque per user would turn every tick into ``B`` Python appends; this
module instead holds *all* users in one ``(capacity, width, n_slots)``
array, so a tick appends one row for every active user in a single fancy-
indexed scatter — the same columnar philosophy as the lock-step engine.

Each slot carries its own monotonically-growing append count; the physical
row of logical append ``i`` is ``i % capacity``, so wraparound never moves
data and :meth:`ContextRing.window` can always recover the chronological
view with one modular index expression.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ContextRing"]


class ContextRing:
    """A fixed-capacity ring of context rows per user slot.

    Parameters
    ----------
    capacity:
        Rows retained per slot (older rows are overwritten).
    width:
        Row width (the serving layer uses 8: time stamp, action code,
        then the six continuous context channels).
    n_slots:
        Initial slot count; :meth:`ensure_slots` grows on demand
        (geometrically, so connecting users is amortised O(1)).
    """

    def __init__(self, capacity: int, width: int, n_slots: int = 0):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        if n_slots < 0:
            raise ValueError(f"n_slots must be >= 0, got {n_slots}")
        self.capacity = int(capacity)
        self.width = int(width)
        self._data = np.zeros((self.capacity, self.width, n_slots))
        self._counts = np.zeros(n_slots, dtype=np.int64)

    @property
    def n_slots(self) -> int:
        return self._data.shape[2]

    def ensure_slots(self, n: int) -> None:
        """Grow the ring to hold at least *n* slots (never shrinks)."""
        current = self.n_slots
        if n <= current:
            return
        grown = max(n, 2 * current, 8)
        data = np.zeros((self.capacity, self.width, grown))
        data[:, :, :current] = self._data
        counts = np.zeros(grown, dtype=np.int64)
        counts[:current] = self._counts
        self._data = data
        self._counts = counts

    def clear_slot(self, slot: int) -> None:
        """Reset one slot for reuse by a new user."""
        self._counts[slot] = 0
        self._data[:, :, slot] = 0.0

    def count(self, slot: int) -> int:
        """Rows currently held in *slot* (saturates at capacity)."""
        return int(min(self._counts[slot], self.capacity))

    def append(self, rows: np.ndarray, slots: np.ndarray) -> None:
        """Append one row per slot in a single vectorized scatter.

        ``rows`` is ``(width, k)`` column-major (one column per slot in
        ``slots``); duplicate slots are rejected — a slot ticks at most
        once per cycle.
        """
        slots = np.asarray(slots, dtype=np.intp)
        rows = np.asarray(rows, dtype=float)
        if rows.shape != (self.width, len(slots)):
            raise ValueError(
                f"rows must be (width, k) = ({self.width}, {len(slots)}), "
                f"got {rows.shape}")
        if len(np.unique(slots)) != len(slots):
            raise ValueError("duplicate slots in one append")
        positions = self._counts[slots] % self.capacity
        self._data[positions, :, slots] = rows.T
        self._counts[slots] += 1

    def export_state(self) -> dict:
        """Snapshot payload: copies of the backing array and counters.

        Consumed by the serving layer's crash-recovery snapshots
        (:mod:`repro.serve.persist`); restoring via :meth:`restore_state`
        reproduces the ring bit for bit, including wraparound position.
        """
        return {"capacity": self.capacity, "width": self.width,
                "data": self._data.copy(), "counts": self._counts.copy()}

    def restore_state(self, state: dict) -> None:
        """Install :meth:`export_state` output (shape-checked)."""
        data = np.asarray(state["data"], dtype=float)
        counts = np.asarray(state["counts"], dtype=np.int64)
        if (int(state["capacity"]) != self.capacity
                or int(state["width"]) != self.width
                or data.shape[:2] != (self.capacity, self.width)
                or counts.shape != (data.shape[2],)):
            raise ValueError(
                f"ring state (capacity={state['capacity']}, "
                f"width={state['width']}, data {data.shape}, counts "
                f"{counts.shape}) does not fit ring {self!r}")
        self._data = data
        self._counts = counts

    def window(self, slot: int) -> np.ndarray:
        """The chronological ``(count, width)`` view of *slot*.

        Oldest retained row first; allocates a fresh array (the ring is
        free to keep overwriting).
        """
        total = int(self._counts[slot])
        n = min(total, self.capacity)
        start = (total - n) % self.capacity
        idx = (start + np.arange(n)) % self.capacity
        return self._data[idx, :, slot]

    def last(self, slot: int) -> np.ndarray:
        """The most recently appended ``(width,)`` row of *slot*."""
        total = int(self._counts[slot])
        if total == 0:
            raise ValueError(f"slot {slot} holds no rows yet")
        return self._data[(total - 1) % self.capacity, :, slot].copy()

    def __repr__(self) -> str:
        return (f"ContextRing(capacity={self.capacity}, width={self.width}, "
                f"n_slots={self.n_slots})")
