"""The benchmark's own tests.

    python3 -m pytest perfbench/test_bench.py

The exact-count test runs the traced benchmark twice per workload (about
eight minutes in all, most of it repro_ci).
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import SpanRecorder  # noqa: E402

ROOT = os.path.dirname(HERE)

#: counters that must repeat exactly across traced runs with one seed
EXACT_COUNTS = ("simulation.sims", "replay.traces", "ml.lstm_forward_calls",
                "ml.mlp_predict_rows_calls", "persist.journal_bytes_per_tick",
                "serve.raw_alerts",
                *(f"serve.state_bytes_per_user.{kind}" for kind in
                  ("cawt", "cawot", "guideline", "mpc", "dt", "mlp", "lstm")))

#: the exact counts each workload exercises (nonzero there)
EXERCISED = {
    "repro_ci": ("simulation.sims", "replay.traces", "ml.lstm_forward_calls"),
    "campaign_small": ("simulation.sims", "replay.traces"),
    "serve_stateless": ("ml.mlp_predict_rows_calls",
                        "persist.journal_bytes_per_tick", "serve.raw_alerts",
                        "serve.state_bytes_per_user.mlp"),
    "serve_stateful": ("ml.lstm_forward_calls",
                       "persist.journal_bytes_per_tick", "serve.raw_alerts",
                       "serve.state_bytes_per_user.lstm"),
}


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], result
    return {name: entry["value"] for name, entry in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_exact_counts_repeat_for_a_seed(workload):
    first, second = traced_run(workload, 7), traced_run(workload, 7)
    for name in EXACT_COUNTS:
        assert first[name] == second[name], name
    for name in EXERCISED[workload]:
        assert first[name] > 0, name


def test_self_time_subtracts_child_cover():
    rec = SpanRecorder("test")
    outer = rec.open("a.outer")
    inner = rec.open("b.inner")
    rec.close(inner)
    rec.close(outer)
    rec.spans[0][1:3] = [0.0, 10.0]
    rec.spans[1][1:3] = [2.0, 5.0]
    assert rec.self_times() == [7.0, 3.0]
    assert rec.layer_self_times() == {"a": 7.0, "b": 3.0}
    assert rec.total("b.inner") == 3.0
