"""Simulation-level accuracy with two regions (Section V-D).

Each simulation counts as a single case: an alert anywhere during a
hazardous trace is a TP regardless of timing.  To still account for false
alarms raised *before* the fault could have had any effect, the trace is
split at the fault-activation step ``tf``:

- the pre-fault region ``[0, tf)`` is always ground-truth negative — any
  alert there is an FP, silence a TN;
- the post-fault region ``[tf, te]`` inherits the trace's hazard label —
  alert = TP / silence = FN when hazardous, alert = FP / silence = TN
  otherwise.

Fault-free traces consist of the post region only.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .confusion import ConfusionCounts

__all__ = ["simulation_confusion"]


def simulation_confusion(traces: Iterable,
                         alerts: Iterable[np.ndarray]) -> ConfusionCounts:
    """Two-region simulation-level confusion over (trace, alerts) pairs.

    Raises ``ValueError`` when *traces* and *alerts* differ in count.
    """
    counts = ConfusionCounts()
    for trace, pred in zip(traces, alerts, strict=True):
        pred = np.asarray(pred).astype(bool)
        if len(pred) != len(trace):
            raise ValueError(
                f"alert sequence length {len(pred)} != trace length {len(trace)}")
        tf = trace.fault_step if trace.fault_step is not None else 0
        pre, post = pred[:tf], pred[tf:]
        if pre.size:
            if pre.any():
                counts.fp += 1
            else:
                counts.tn += 1
        if trace.hazardous:
            if post.any():
                counts.tp += 1
            else:
                counts.fn += 1
        else:
            if post.any():
                counts.fp += 1
            else:
                counts.tn += 1
    return counts
