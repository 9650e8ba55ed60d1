"""Golden fixture: the deterministic monitor kinds' verdicts, pinned.

``data/golden_replay.json`` holds one SHA-256 per trace and monitor kind
over the replayed alert stream (bool) and hazard-code stream (int64).
The digests were recorded through the per-cycle scalar reference that
:meth:`~repro.core.monitor.SafetyMonitor.observe_batch` had to match
element-wise before that reference was retired (each kind's own
hand-written ``observe``, fed a trace's contexts one cycle at a time), so
this file carries its semantics forward:

- inputs: the 35 unmonitored traces per platform of ``test_golden.py``'s
  grid, whose bytes that file pins;
- kinds: CAWOT; CAWT at the committed ``cawt_thresholds``; Guideline at
  its defaults and at the committed ``guideline_fitted`` λ10/λ90; MPC at
  horizons 6 and 24; and the depth-3 DT of
  ``tests/serve/data/service_v1/registry``.

Replay runs at the production ``LOCKSTEP_WIDTH`` and at width 1.
Recording with numpy's AVX-512 loops disabled gave the same digest for
every entry, so the fixture carries one digest per entry.  The trained
MLP and LSTM stay out: their weights depend on the BLAS build, and their
tests compare ``observe_batch`` with the model's one-row ``predict``.
The rules' half of the fixture is read by ``tests/core/test_rules.py``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import GuidelineMonitor, MPCMonitor
from repro.core import cawot_monitor, cawt_monitor
from repro.fi import INITIAL_GLUCOSE_VALUES, CampaignConfig, generate_campaign
from repro.parallel import lockstep_width, map_chunks
from repro.serve.registry import MonitorRegistry
from repro.simulation import (CampaignExecutor, CampaignPlan, ContextBatch,
                              plan_campaign, plan_fault_free, replay_campaign)
from tests.conftest import PRODUCTION_WIDTH

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "golden_replay.json").read_text())
REGISTRY = Path(__file__).parents[1] / "serve" / "data" / "service_v1" \
    / "registry"
#: test_golden.py's grid
GRID = CampaignConfig(init_glucose_values=(120.0, 200.0),
                      timing_choices=((40, 30),))
PATIENTS = {"glucosym": "B", "t1ds2013": "P01"}
KINDS = {
    "CAWOT": cawot_monitor,
    "CAWT": lambda: cawt_monitor(GOLDEN["cawt_thresholds"]),
    "Guideline": GuidelineMonitor,
    "Guideline-fitted": lambda: GuidelineMonitor(**GOLDEN["guideline_fitted"]),
    "MPC6": lambda: MPCMonitor(horizon_steps=6),
    "MPC24": lambda: MPCMonitor(horizon_steps=24),
    "DT": lambda: MonitorRegistry.load(str(REGISTRY))["DT"],
}


def verdict_digest(alerts, hazards) -> str:
    h = hashlib.sha256()
    for name, a in (("alerts", np.asarray(alerts, dtype=bool)),
                    ("hazards", np.asarray(hazards, dtype=np.int64))):
        a = np.ascontiguousarray(a)
        h.update(f"{name}|{a.dtype.str}|{a.shape}|".encode())
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def unmonitored():
    """``platform -> the 35 unmonitored traces``, in fixture order."""
    out = {}
    for platform, pid in PATIENTS.items():
        runs = (plan_campaign(platform, [pid], generate_campaign(GRID)).runs
                + plan_fault_free(platform, [pid],
                                  INITIAL_GLUCOSE_VALUES).runs)
        out[platform] = CampaignExecutor(1).run(CampaignPlan(
            platform=platform, runs=tuple(runs), n_steps=GOLDEN["n_steps"],
            dt=GOLDEN["dt"]))
    return out


def replay_verdicts(monitor, traces):
    """Per-trace ``(alerts, hazards)``: one fresh-state ``observe_batch``
    per lock-step chunk, the chunks replay uses."""
    def chunk_verdicts(chunk):
        alerts, hazards = monitor.observe_batch(
            ContextBatch.from_traces(chunk))
        return [(alerts[:, b], hazards[:, b]) for b in range(len(chunk))]
    return [verdicts for chunk in map_chunks(chunk_verdicts, traces,
                                             lockstep_width(), 1)
            for verdicts in chunk]


def test_fixture_covers_the_grid():
    entries = GOLDEN["traces"]
    assert len(entries) == len(PATIENTS) * len(KINDS) * (28 + 7)
    assert {(e["platform"], e["kind"]) for e in entries} == {
        (p, k) for p in PATIENTS for k in KINDS}
    golden_traces = json.loads((DATA / "golden_traces.json").read_text())
    for platform in PATIENTS:
        labels = [e["label"] for e in golden_traces["traces"]
                  if e["platform"] == platform
                  and e["variant"] == "unmonitored"]
        for kind in KINDS:
            assert [e["label"] for e in entries if e["platform"] == platform
                    and e["kind"] == kind] == labels


@pytest.mark.parametrize("width", [PRODUCTION_WIDTH, 1])
@pytest.mark.parametrize("kind", list(KINDS))
@pytest.mark.parametrize("platform", list(PATIENTS))
def test_replay_matches_golden_digests(unmonitored, set_lockstep_width,
                                       platform, kind, width):
    set_lockstep_width(width)
    traces = unmonitored[platform]
    monitor = KINDS[kind]()
    verdicts = replay_verdicts(monitor, traces)
    expected = [e for e in GOLDEN["traces"]
                if e["platform"] == platform and e["kind"] == kind]
    assert len(verdicts) == len(expected) == 35
    for trace, (alerts, hazards), entry in zip(traces, verdicts, expected):
        assert trace.label == entry["label"]
        assert int(alerts.sum()) == entry["n_alerts"], trace.label
        assert verdict_digest(alerts, hazards) == entry["sha256"], \
            f"{platform}/{kind}/{trace.label} drifted from the fixture"
    # the fixture exercises both verdicts of every kind
    streams = np.concatenate([alerts for alerts, _ in verdicts])
    assert streams.any() and not streams.all()
    # replay_campaign serves the same alert streams
    replayed = replay_campaign({kind: monitor}, traces)[kind]
    for (alerts, _), stream in zip(verdicts, replayed):
        np.testing.assert_array_equal(stream, alerts)
