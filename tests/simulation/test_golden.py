"""Golden fixture: the closed loop's traces, pinned byte for byte.

``data/golden_traces.json`` holds one SHA-256 per trace over every array
channel (name, dtype, shape and raw bytes), next to the trace's label and
fault.  The digests were recorded through the single-run reference loop
that the lock-step engine had to match element-wise before that loop was
retired, so this file carries its semantics forward:

- glucosym patient B and t1ds2013 patient P01;
- the 14 campaign fault configurations at timing (40, 30) from 120 and
  200 mg/dL, plus the seven fault-free starts (80..200 mg/dL);
- seven variants: unmonitored; Guideline-monitored; CAWOT with the
  Fixed, Proportional and Predictive mitigators; MPC (horizon 24) with
  Fixed; and CAWOT with a Fixed H2 dose of 1.15 U/h, a rate on the pump's
  0.05 U/h grid that float division puts just below its grid point.

The unmonitored glucosym fault-free runs are checked at
``LOCKSTEP_WIDTH`` 1 too: one-row batches are where a reordered IOB sum
would show.

The trained monitor kinds stay out: their weights depend on the BLAS
build.  numpy's AVX-512 (X86_V4) loops round S2013's ``log``/``tanh``/
``power`` differently from its AVX2 ones, so t1ds2013 entries carry a
second digest recorded with that dispatch disabled
(``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``; CI runs this
file both ways).
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import GuidelineMonitor, MPCMonitor
from repro.core import cawot_monitor
from repro.core.mitigation import (FixedMitigator, PredictiveMitigator,
                                   ProportionalMitigator)
from repro.fi import INITIAL_GLUCOSE_VALUES, CampaignConfig, generate_campaign
from repro.simulation import (TRACE_ARRAY_FIELDS, CampaignExecutor,
                              CampaignPlan, plan_campaign, plan_fault_free)

GOLDEN = json.loads((Path(__file__).parent / "data"
                     / "golden_traces.json").read_text())
GRID = CampaignConfig(init_glucose_values=(120.0, 200.0),
                      timing_choices=((40, 30),))
PATIENTS = {"glucosym": "B", "t1ds2013": "P01"}
VARIANTS = {
    "unmonitored": (None, None),
    "guideline": (GuidelineMonitor, None),
    "cawot-fixed": (cawot_monitor, FixedMitigator),
    "cawot-proportional": (cawot_monitor, ProportionalMitigator),
    "cawot-predictive": (cawot_monitor, PredictiveMitigator),
    "mpc24-fixed": (lambda: MPCMonitor(horizon_steps=24), FixedMitigator),
    "cawot-fixed-1.15": (cawot_monitor,
                         lambda: FixedMitigator(max_rate=1.15)),
}


def avx512_dispatch() -> bool:
    """Whether numpy runs its X86_V4 (AVX-512) loops in this process."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath
    features = _multiarray_umath.__cpu_features__
    return bool(features.get("X86_V4", features.get("AVX512_SKX", False)))


def trace_digest(trace) -> str:
    h = hashlib.sha256()
    for name in TRACE_ARRAY_FIELDS:
        a = np.ascontiguousarray(getattr(trace, name))
        h.update(f"{name}|{a.dtype.str}|{a.shape}|".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def fault_record(fault):
    if fault is None:
        return None
    return {"kind": fault.kind.value, "target": fault.target.value,
            "start_step": fault.start_step,
            "duration_steps": fault.duration_steps, "value": fault.value}


def test_fixture_covers_the_grid():
    entries = GOLDEN["traces"]
    assert len(entries) == 2 * len(VARIANTS) * (28 + 7)
    assert {(e["platform"], e["variant"]) for e in entries} == {
        (p, v) for p in PATIENTS for v in VARIANTS}
    assert all(("sha256_no_avx512" in e) == (e["platform"] == "t1ds2013")
               for e in entries)


def assert_golden(platform, variant, label_prefix=""):
    """Simulate the fixture's runs of *platform* x *variant* whose label
    starts with *label_prefix* and compare their digests."""
    monitor, mitigator = VARIANTS[variant]
    pid = PATIENTS[platform]
    runs = tuple(run for run in (
        plan_campaign(platform, [pid], generate_campaign(GRID)).runs
        + plan_fault_free(platform, [pid], INITIAL_GLUCOSE_VALUES).runs)
        if run.label.startswith(label_prefix))
    plan = CampaignPlan(platform=platform, runs=runs,
                        n_steps=GOLDEN["n_steps"], dt=GOLDEN["dt"])
    traces = CampaignExecutor(1).run(
        plan, monitor_factory=(lambda _pid: monitor()) if monitor else None,
        mitigator=mitigator() if mitigator else None)
    expected = [e for e in GOLDEN["traces"]
                if e["platform"] == platform and e["variant"] == variant
                and e["label"].startswith(label_prefix)]
    key = "sha256" if avx512_dispatch() else "sha256_no_avx512"
    assert len(traces) == len(expected) == (7 if label_prefix else 35)
    for trace, entry in zip(traces, expected):
        assert (trace.patient_id, trace.label) == (entry["patient_id"],
                                                   entry["label"])
        assert fault_record(trace.fault) == entry["fault"]
        assert trace_digest(trace) == entry.get(key, entry["sha256"]), \
            f"{platform}/{variant}/{trace.label} drifted from the fixture"


@pytest.mark.parametrize("variant", list(VARIANTS))
@pytest.mark.parametrize("platform", list(PATIENTS))
def test_traces_match_golden_digests(platform, variant):
    assert_golden(platform, variant)


def test_width_one_matches_golden_digests(set_lockstep_width):
    set_lockstep_width(1)
    assert_golden("glucosym", "unmonitored", label_prefix="fault-free/")
