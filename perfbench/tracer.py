"""Span recorder and layer probes for the traced benchmark run.

The traced run measures each layer from outside the library: it swaps the
names a caller looks up (module-level functions, or methods on a class)
for thin wrappers that open a span around the original call, and restores
the originals afterwards.  Nothing under ``src/`` changes, and an
untraced run never imports this module's probes.

A span is ``(name, start, end, parent)``; spans live in memory and are
written once, by :meth:`SpanRecorder.dump`, when the run ends.  A span's
self time is its duration minus the time its child spans cover; since
one thread runs every span, children nest strictly and their cover is the
sum of their durations.  The layer of a span is its name up to the first
dot, so the self times of all spans inside the measured phase add up to
its wall time, layer by layer.

Calls too frequent for one span each (monitor evaluations during replay,
LSTM forwards, MLP row predictions) are accumulated into named counters
instead.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

__all__ = ["SpanRecorder", "install_probes", "monitor_kind", "MONITOR_KINDS"]

#: monitor kinds the per-kind metrics are keyed by
MONITOR_KINDS = ("cawt", "cawot", "guideline", "mpc", "dt", "mlp", "lstm")


class SpanRecorder:
    """In-memory spans plus named counters for one run (``run_id``)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        #: ``[name, start, end, parent_index]`` per span, in open order
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._patches: List[tuple] = []
        #: >0 while inside a replay call (monitor evaluations are timed)
        self.replay_depth = 0
        self._in_monitor = False

    # -- spans ------------------------------------------------------------
    def open(self, name: str) -> int:
        if name == "replay":
            self.replay_depth += 1
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        if self.spans[index][0] == "replay":
            self.replay_depth -= 1
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of "
                               "order")

    def is_open(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called *name*."""
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    # -- patching -----------------------------------------------------------
    def wrap_function(self, module, attr: str,
                      name_of: Callable[[tuple, dict], Optional[str]],
                      before: Optional[Callable] = None) -> None:
        """Span every call of ``module.attr`` made through any ``repro``
        module's global of that function.

        ``name_of(args, kwargs)`` names the span (None: no span).  A call
        nested inside an open span of the same name records no second
        span, so totals per name never count time twice.
        """
        original = getattr(module, attr)
        recorder = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            name = name_of(args, kwargs)
            if name is None or recorder.is_open(name):
                return original(*args, **kwargs)
            return recorder.call(name, original, *args, **kwargs)

        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original, True))
                    setattr(mod, key, wrapper)

    def wrap_method(self, cls, attr: str, make: Callable[[Callable], Callable]
                    ) -> None:
        """Replace ``cls.attr`` with ``make(resolved_original)``."""
        original = getattr(cls, attr)
        self._patches.append((cls, attr, cls.__dict__.get(attr),
                              attr in cls.__dict__))
        setattr(cls, attr, make(original))

    def restore(self) -> None:
        for owner, attr, original, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- analysis -----------------------------------------------------------
    def self_times(self) -> List[float]:
        own = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            if span[3] is not None:
                own[span[3]] -= span[2] - span[1]
        return own

    def total(self, name: str) -> float:
        """Summed duration of the spans called *name*."""
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def layer_self_times(self, root: Optional[int] = None
                         ) -> Dict[str, float]:
        """Self time per layer, over the spans inside span *root* (all
        spans when None)."""
        start, end = ((self.spans[root][1], self.spans[root][2])
                      if root is not None else (float("-inf"), float("inf")))
        totals: Dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            if span[1] >= start and span[2] <= end:
                totals[span[0].split(".", 1)[0]] += own
        return dict(totals)

    def dump(self, path: str) -> None:
        """Write every span (with its self time) and counter as JSON."""
        doc = {"run_id": self.run_id,
               "spans": [{"name": s[0], "start": s[1], "end": s[2],
                          "parent": s[3], "run_id": self.run_id,
                          "self": own}
                         for s, own in zip(self.spans, self.self_times())],
               "counters": dict(self.counters)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def monitor_kind(monitor) -> str:
    """The per-kind metric key of a monitor instance."""
    cls = type(monitor).__name__
    if cls == "ContextAwareMonitor":
        return "cawot" if "CAWOT" in str(monitor.name).upper() else "cawt"
    return {"GuidelineMonitor": "guideline", "MPCMonitor": "mpc",
            "DTMonitor": "dt", "MLPMonitor": "mlp",
            "LSTMMonitor": "lstm"}.get(cls, "other")


def install_probes(rec: SpanRecorder) -> None:
    """Wrap the public entry points of every measured layer.

    Spans: ``simulation.{campaign,mitigated,fault_free,warm_profiles}``,
    ``replay``, ``learning.{learn,mine}``, ``ml.dataset``,
    ``ml.train.<kind>``, ``store.read`` and ``persist.journal``.  The
    benchmark itself opens ``experiments.<stage>``, ``store.write`` and
    ``serve.tick`` spans around the calls it makes.  Counters:
    ``simulation.sims``, ``replay.traces``, ``replay.<kind>_s``,
    ``ml.lstm_forward_calls`` and ``ml.mlp_predict_rows_calls``.
    """
    # importing these modules first puts every call site in sys.modules
    import repro.core.learning as learning
    import repro.experiments  # noqa: F401
    import repro.ml.datasets as datasets
    import repro.ml.training as training
    import repro.serve  # noqa: F401
    import repro.simulation.batch as batch
    import repro.simulation.replay as replay
    import repro.simulation.vector as vector
    from repro.baselines import GuidelineMonitor, MPCMonitor
    from repro.core.monitor import ContextAwareMonitor
    from repro.ml.monitors import DTMonitor, LSTMMonitor, MLPMonitor
    from repro.ml.nn import MLPClassifier
    from repro.ml.nn.lstm import LSTMLayer
    from repro.serve.persist import TickJournal
    from repro.simulation.executor import CampaignExecutor
    from repro.simulation.store import TraceDataset

    def fixed(name):
        return lambda args, kwargs: name

    def campaign_name(args, kwargs):
        mitigator = kwargs.get("mitigator", args[4] if len(args) > 4 else None)
        return "simulation.mitigated" if mitigator is not None \
            else "simulation.campaign"

    rec.wrap_function(batch, "run_campaign", campaign_name)
    rec.wrap_function(batch, "run_fault_free", fixed("simulation.fault_free"))
    # controller-profile titration: lazily per patient on the scalar path
    # (empirical_isf), or in one lock-step batch (warm_profiles)
    for module, attr in ((batch, "empirical_isf"), (vector, "warm_profiles"),
                         (vector, "titrate_isf_batch")):
        rec.wrap_function(module, attr, fixed("simulation.warm_profiles"))
    rec.wrap_method(CampaignExecutor, "run", lambda run: _counting(
        rec, "simulation.sims", run, lambda args: len(args[1].runs)))

    for attr in ("learn_thresholds", "learn_fold_thresholds"):
        rec.wrap_function(learning, attr, fixed("learning.learn"))
    rec.wrap_function(learning, "mine_rule_samples", fixed("learning.mine"))

    for module, attr in ((training, "job_dataset"),
                         (datasets, "build_point_dataset"),
                         (datasets, "build_window_dataset")):
        rec.wrap_function(module, attr, fixed("ml.dataset"))
    rec.wrap_function(training, "train_job",
                      lambda args, kwargs: f"ml.train.{args[0].kind}")
    rec.wrap_method(LSTMLayer, "forward", lambda fwd: _counting(
        rec, "ml.lstm_forward_calls", fwd, lambda args: 1))
    rec.wrap_method(MLPClassifier, "predict_rows", lambda pr: _counting(
        rec, "ml.mlp_predict_rows_calls", pr, lambda args: 1))

    def count_traces(args, kwargs):
        if rec.is_open("replay"):
            return
        traces = kwargs.get("traces", args[1] if len(args) > 1 else ())
        if hasattr(traces, "__len__"):
            rec.counters["replay.traces"] += len(traces)

    for attr in ("replay_campaign", "replay_many"):
        rec.wrap_function(replay, attr, fixed("replay"), before=count_traces)
    # monitor time is attributed only while a replay span is open, so the
    # monitors inside mitigated closed loops are not counted as replay
    for cls in (ContextAwareMonitor, GuidelineMonitor, MPCMonitor,
                DTMonitor, MLPMonitor, LSTMMonitor):
        for attr in ("observe", "observe_batch"):
            rec.wrap_method(cls, attr, lambda fn: _timed_monitor(rec, fn))

    rec.wrap_method(TraceDataset, "_decode", lambda decode: _spanned(
        rec, "store.read", decode))
    for attr in ("append", "sync"):
        rec.wrap_method(TickJournal, attr, lambda fn: _spanned(
            rec, "persist.journal", fn))


def _counting(rec: SpanRecorder, counter: str, fn: Callable,
              amount: Callable[[tuple], int]) -> Callable:
    def wrapper(*args, **kwargs):
        rec.counters[counter] += amount(args)
        return fn(*args, **kwargs)
    return wrapper


def _spanned(rec: SpanRecorder, name: str, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        return rec.call(name, fn, *args, **kwargs)
    return wrapper


def _timed_monitor(rec: SpanRecorder, fn: Callable) -> Callable:
    """Accumulate ``replay.<kind>_s`` for outermost monitor calls made
    inside a replay span (``observe_batch`` may fall back to ``observe``)."""
    def wrapper(self, *args, **kwargs):
        if rec.replay_depth == 0 or rec._in_monitor:
            return fn(self, *args, **kwargs)
        rec._in_monitor = True
        start = perf_counter()
        try:
            return fn(self, *args, **kwargs)
        finally:
            rec._in_monitor = False
            rec.counters[f"replay.{monitor_kind(self)}_s"] += (
                perf_counter() - start)
    return wrapper

