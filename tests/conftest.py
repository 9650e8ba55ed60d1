"""Shared test-fixture layer.

Several test modules need "a small but real fault-injection campaign".
Before this layer each of them simulated its own — the same 56 traces,
several times per run.  The fixtures here simulate that campaign (and the
matching fault-free references) exactly once per session and hand the same
list to every module, cutting tier-1 wall-clock without any test giving up
real closed-loop data.

Test code must treat the shared traces as immutable: SimulationTrace is a
frozen dataclass, so this is only a concern for tests that would mutate
the returned *list* — copy it first (``list(tiny_campaign_traces)``).
"""

import dataclasses

import numpy as np
import pytest

import repro.parallel
from repro.baselines import GuidelineMonitor, MPCMonitor
from repro.core import cawot_monitor, cawt_monitor
from repro.fi import FaultInjector
from repro.ml import (build_window_dataset, train_dt_monitor,
                      train_mlp_monitor)
from repro.ml.monitors import LSTMMonitor
from repro.ml.nn import LSTMClassifier
from repro.simulation import Scenario, make_loop, run_campaign, run_fault_free

# grid constants live in tests/tiny_grid.py (a uniquely-named module —
# `conftest` is ambiguous once subdirectories carry their own); re-exported
# here so fixture users keep one import point
from tiny_grid import (TINY_CAMPAIGN_CONFIG, TINY_PATIENT,  # noqa: F401
                       TINY_PLATFORM, tiny_campaign_scenarios)

#: the lock-step widths every parity suite sweeps: single-row batches, a
#: width that leaves ragged batches, and one wider than most test plans
LOCKSTEP_WIDTHS = (1, 7, 32)


@pytest.fixture(scope="session")
def tiny_campaign_traces():
    """56-trace patient-B campaign shared across test modules."""
    return run_campaign(TINY_PLATFORM, [TINY_PATIENT],
                        tiny_campaign_scenarios())


@pytest.fixture(scope="session")
def tiny_fault_free_traces():
    """One 60-step fault-free reference run for the shared patient."""
    return run_fault_free(TINY_PLATFORM, [TINY_PATIENT], (120.0,), n_steps=60)


@pytest.fixture(scope="session")
def all_monitor_kinds(tiny_campaign_traces):
    """One small instance of each of the seven in-tree monitor kinds.

    The ML models are trained on the shared campaign with small stacks.
    The LSTM (k = 6) learns to flag windows ending above 130 mg/dL, so it
    alerts on campaign traces and on synthetic fleets alike.  Shared
    across the session: use the monitors, never mutate them.
    """
    traces = tiny_campaign_traces[:16]
    X, _ = build_window_dataset(traces, k=6)
    lstm = LSTMClassifier(hidden=(16, 8), lr=1e-2, max_epochs=10,
                          seed=0).fit(X, (X[:, -1, 0] > 130.0).astype(int))
    return {"CAWT": cawt_monitor({"beta1": 75.0}),
            "CAWOT": cawot_monitor(),
            "Guideline": GuidelineMonitor(),
            "MPC": MPCMonitor(),
            "DT": train_dt_monitor(traces, max_depth=4),
            "MLP": train_mlp_monitor(traces, seed=0, max_epochs=2,
                                     hidden=(16, 8)),
            "LSTM": LSTMMonitor(lstm, k=6)}


def _assert_traces_equal(a, b):
    """Bitwise equality of two SimulationTraces (every field).

    Arrays must be ``np.array_equal`` and match in dtype, shape and raw
    bytes: ``np.array_equal`` alone treats ``-0.0`` and ``+0.0`` as equal,
    which would hide exactly the sign flip a reordered or in-place rewrite
    of the engine can introduce.
    """
    assert a.platform == b.platform
    assert a.patient_id == b.patient_id
    assert a.label == b.label
    assert a.dt == b.dt
    assert a.fault == b.fault
    for f in dataclasses.fields(a):
        v1, v2 = getattr(a, f.name), getattr(b, f.name)
        if isinstance(v1, np.ndarray):
            assert np.array_equal(v1, v2), f"field {f.name} differs"
            assert isinstance(v2, np.ndarray), f"field {f.name} differs"
            assert v1.dtype == v2.dtype, f"field {f.name} dtype differs"
            assert v1.shape == v2.shape, f"field {f.name} shape differs"
            assert v1.tobytes() == v2.tobytes(), f"field {f.name} differs"


@pytest.fixture(scope="session")
def assert_traces_equal():
    """The canonical trace-equality assertion used by every parity suite."""
    return _assert_traces_equal


@pytest.fixture
def set_lockstep_width(monkeypatch):
    """``set_lockstep_width(w)`` sets :data:`repro.parallel.LOCKSTEP_WIDTH`
    for the rest of the test (restored afterwards)."""
    def set_width(width):
        monkeypatch.setattr(repro.parallel, "LOCKSTEP_WIDTH", width)
    return set_width


def _reference_traces(plan, monitor_factory=None, mitigator=None):
    """Every plan cell through the single-run ``make_loop(...).run``.

    One loop per run of consecutive same-patient cells, its monitor from
    the factory; ``ClosedLoop.run`` resets the monitor and the shared
    mitigator at the start of every run.
    """
    traces = []
    loop, current = None, None
    for run in plan.runs:
        if loop is None or run.patient_id != current:
            monitor = monitor_factory(run.patient_id) if monitor_factory \
                else None
            loop = make_loop(plan.platform, run.patient_id, monitor=monitor,
                             mitigator=mitigator, target=plan.target)
            current = run.patient_id
        loop.injector = (FaultInjector(run.fault) if run.fault is not None
                         else None)
        traces.append(loop.run(Scenario(
            init_glucose=run.init_glucose, n_steps=plan.n_steps, dt=plan.dt,
            label=run.label, meals=run.meals)))
    return traces


@pytest.fixture(scope="session")
def reference_traces():
    """The single-run reference every executor parity test compares to."""
    return _reference_traces
