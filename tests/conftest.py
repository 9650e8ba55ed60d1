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
from repro.core import Mitigator, SafetyMonitor, cawot_monitor, cawt_monitor
from repro.hazards import HazardType
from repro.ml import (build_window_dataset, train_dt_monitor,
                      train_mlp_monitor)
from repro.ml.monitors import LSTMMonitor
from repro.ml.nn import LSTMClassifier
from repro.fi import FaultTarget
from repro.serve.chaos import fleet_ticks
from repro.simulation import (CampaignExecutor, ContextBatch, SimRun,
                              run_batch, run_campaign, run_fault_free)
from repro.simulation.vector import _FaultBatch

# grid constants live in tests/tiny_grid.py (a uniquely-named module —
# `conftest` is ambiguous once subdirectories carry their own); re-exported
# here so fixture users keep one import point
from tiny_grid import (TINY_CAMPAIGN_CONFIG, TINY_PATIENT,  # noqa: F401
                       TINY_PLATFORM, tiny_campaign_scenarios)

#: the lock-step widths every parity suite sweeps: single-row batches, a
#: width that leaves ragged batches, and one wider than most test plans
LOCKSTEP_WIDTHS = (1, 7, 32)


def ramp_ticks(n_users, n_ticks, seed):
    """The synthetic serving fleet's ticks with every user's glucose
    climbing 30 mg/dL a tick out of hypoglycaemia (user j of n starts
    100 j / n mg/dL higher): every kind of :func:`all_monitor_kinds`
    alerts on it, the stateful ones on state carried across ticks."""
    offsets = 100.0 * np.arange(n_users) / n_users
    return [dataclasses.replace(tick, cgm=60.0 + 30.0 * step + offsets)
            for step, tick in enumerate(fleet_ticks(n_users, n_ticks,
                                                    seed=seed))]


def replay_alone(monitor, trace):
    """``(alerts, hazards)`` of *trace* replayed alone: one fresh-state
    ``observe_batch`` over its one-column batch (width 1)."""
    alerts, hazards = monitor.observe_batch(ContextBatch.from_traces([trace]))
    return alerts[:, 0], hazards[:, 0]


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


#: the lock-step width the package ships with (captured before any test
#: monkeypatches it): the reference every width sweep compares against
PRODUCTION_WIDTH = repro.parallel.LOCKSTEP_WIDTH


def _production_traces(plan, monitor_factory=None, mitigator=None):
    """Every plan cell through the engine at the production width."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.parallel, "LOCKSTEP_WIDTH", PRODUCTION_WIDTH)
        return CampaignExecutor(1).run(plan, monitor_factory=monitor_factory,
                                       mitigator=mitigator)


@pytest.fixture(scope="session")
def production_traces():
    """The production-width run every width/worker parity test compares
    to (the traces themselves are pinned by ``test_golden.py``)."""
    return _production_traces


class _AlwaysAlert(SafetyMonitor):
    """Flags every cycle (as H2), so a mitigator rewrites every command."""

    name = "always"

    def init_state(self, n_cols):
        return {}

    def observe_batch(self, batch, state=None):
        return (np.ones(batch.shape, dtype=bool),
                np.full(batch.shape, int(HazardType.H2)))


class _Schedule(Mitigator):
    """Replaces the command of cycle ``k`` by ``(rates[k], boluses[k])``."""

    def __init__(self, rates, boluses, dt):
        self.rates, self.boluses, self.dt = rates, boluses, dt

    def correct_mask(self, alerts, hazards, tick):
        k = int(round(tick.t[0, 0] / self.dt))
        return (np.full(len(alerts), self.rates[k]),
                np.full(len(alerts), self.boluses[k]))


def commanded_run(platform, pid, rates, boluses=None, init_glucose=120.0,
                  dt=5.0, meals=()):
    """One engine run whose final command of cycle ``k`` is
    ``(rates[k], boluses[k])`` (bolus 0 by default): the plant, pump and
    IOB stages see exactly those commands."""
    rates = [float(r) for r in rates]
    boluses = [0.0] * len(rates) if boluses is None \
        else [float(b) for b in boluses]
    trace, = run_batch(platform, [SimRun(pid, init_glucose, "commanded",
                                         meals=tuple(meals))],
                       n_steps=len(rates), dt=dt,
                       monitor_factory=lambda _pid: _AlwaysAlert(),
                       mitigator=_Schedule(rates, boluses, dt))
    return trace


class FaultProbe:
    """One row of the engine's fault masks, fed plain floats a cycle at a
    time (the engine's order: reading, then IOB, then command)."""

    def __init__(self, spec):
        self.target = spec.target
        self.batch = _FaultBatch([SimRun("A", 120.0, "probe", spec)])

    def corrupt_reading(self, value, step):
        return float(self.batch.corrupt_reading(np.array([value]), step)[0])

    def corrupt_iob(self, value, step):
        return float(self.batch.corrupt_iob(np.array([value]), step)[0])

    def corrupt_command(self, rate, bolus, step):
        rate, bolus = self.batch.corrupt_command(np.array([rate]),
                                                 np.array([bolus]), step)
        return float(rate[0]), float(bolus[0])

    def corrupt(self, value, step):
        """*value* as the fault's own target variable sees it at *step*."""
        if self.target is FaultTarget.GLUCOSE:
            return self.corrupt_reading(value, step)
        if self.target is FaultTarget.IOB:
            return self.corrupt_iob(value, step)
        rate, bolus = self.corrupt_command(value, value, step)
        return rate if self.target is FaultTarget.RATE else bolus
