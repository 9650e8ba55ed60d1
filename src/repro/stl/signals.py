"""Discrete-time, uniformly-sampled multi-channel signal traces.

The STL engine in this package operates on :class:`Trace` objects: a set of
named, equally-long, uniformly-sampled channels.  Time is measured in the same
unit as the trace's ``dt`` (minutes throughout this repository, matching the
paper's 5-minute APS control cycle).

Channels are numpy float arrays with a leading time axis.  Any trailing
axes are a batch shape shared by every channel: an ``(n_steps, B)`` trace is
``B`` equal-length signals evaluated in lock step, and every operation of
:mod:`repro.stl.semantics` treats its columns independently.  Boolean facts
(e.g. "the controller issued control action ``u1`` at this step") are
encoded as 0.0/1.0 channels and interpreted by boolean predicates in
:mod:`repro.stl.ast`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping

import numpy as np

__all__ = ["Trace"]


class Trace:
    """A uniformly-sampled multi-channel signal.

    Parameters
    ----------
    channels:
        Mapping of channel name to array-like of samples, time along axis 0.
        All channels must share one shape: ``(n_steps,)``, or
        ``(n_steps, *batch)`` for a lock-step stack of signals.
    dt:
        Sampling period (minutes).  Defaults to the paper's 5-minute APS
        control cycle.
    t0:
        Time stamp of the first sample (minutes).

    ``shape`` is the common channel shape; ``len(trace)`` is its time axis.
    """

    def __init__(self, channels: Mapping[str, Iterable[float]], dt: float = 5.0,
                 t0: float = 0.0):
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        self._channels: Dict[str, np.ndarray] = {}
        self.dt = float(dt)
        self.t0 = float(t0)
        shape = None
        for name, values in channels.items():
            arr = np.asarray(values, dtype=float)
            if arr.ndim == 0:
                raise ValueError(f"channel {name!r} needs a time axis, got a scalar")
            if shape is None:
                shape = arr.shape
            elif arr.shape != shape:
                raise ValueError(
                    f"channel {name!r} has shape {arr.shape}, expected {shape} "
                    "(one length and batch shape for every channel)")
            self._channels[name] = arr
        if shape is None:
            raise ValueError("a Trace needs at least one channel")
        self.shape = shape

    # ------------------------------------------------------------------
    # basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.shape[0]

    def __contains__(self, name: str) -> bool:
        return name in self._channels

    def __iter__(self) -> Iterator[str]:
        return iter(self._channels)

    @property
    def names(self):
        """Tuple of channel names (insertion order)."""
        return tuple(self._channels)

    @property
    def times(self) -> np.ndarray:
        """Sample time stamps in minutes."""
        return self.t0 + self.dt * np.arange(len(self))

    @property
    def duration(self) -> float:
        """Total covered time span in minutes (0 for a single sample)."""
        return self.dt * max(len(self) - 1, 0)

    def channel(self, name: str) -> np.ndarray:
        """Return the samples of channel *name* (read-only view)."""
        try:
            return self._channels[name]
        except KeyError:
            raise KeyError(
                f"trace has no channel {name!r}; available: {sorted(self._channels)}"
            ) from None

    def __getitem__(self, name: str) -> np.ndarray:
        return self.channel(name)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def with_channel(self, name: str, values: Iterable[float]) -> "Trace":
        """Return a new trace with channel *name* added or replaced."""
        merged = dict(self._channels)
        merged[name] = np.asarray(values, dtype=float)
        return Trace(merged, dt=self.dt, t0=self.t0)

    def with_derivative(self, name: str, out: str | None = None) -> "Trace":
        """Return a new trace with the per-minute backward difference of *name*.

        The paper's context transformations include the rates of change BG'
        and IOB' (Section IV-B).  The difference runs along the time axis;
        the first sample's derivative is defined as 0 (no history yet),
        matching an online monitor that has seen a single sample.
        """
        out = out or name + "'"
        values = self.channel(name)
        deriv = np.zeros_like(values)
        if len(values) > 1:
            deriv[1:] = np.diff(values, axis=0) / self.dt
        return self.with_channel(out, deriv)

    def slice(self, start: int, stop: int | None = None) -> "Trace":
        """Return the sub-trace of sample indices ``[start, stop)``."""
        stop = len(self) if stop is None else stop
        if not (0 <= start <= stop <= len(self)):
            raise IndexError(f"invalid slice [{start}, {stop}) for length {len(self)}")
        sub = {name: arr[start:stop] for name, arr in self._channels.items()}
        return Trace(sub, dt=self.dt, t0=self.t0 + start * self.dt)

    def steps(self, minutes: float) -> int:
        """Convert a duration in minutes to a whole number of samples.

        Raises ``ValueError`` when the duration is not (close to) a multiple
        of ``dt`` — silently rounding temporal bounds would change formula
        semantics.
        """
        ratio = minutes / self.dt
        steps = int(round(ratio))
        if abs(ratio - steps) > 1e-9:
            raise ValueError(
                f"duration {minutes} min is not a multiple of dt={self.dt} min")
        return steps

    def to_dict(self) -> Dict[str, np.ndarray]:
        """Return a shallow copy of the channel mapping."""
        return dict(self._channels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Trace(channels={list(self._channels)}, shape={self.shape}, "
                f"dt={self.dt}, t0={self.t0})")
