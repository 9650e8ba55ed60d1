"""Range worker: partials, idempotent re-execution, crash atomicity, CLI."""

import json
import os
import subprocess
import sys

import pytest

from repro.distributed import (CRASH_AFTER_SHARDS_ENV, CRASH_EXIT_CODE,
                               DistributedCampaignError, PlanFormatError,
                               load_plan, partial_manifest_path, plan_from_doc,
                               plan_to_doc, save_plan, write_partial)
from repro.simulation.store import SCHEMA_VERSION, plan_fingerprint


def _src_path_env():
    env = dict(os.environ)
    import repro
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run_worker(args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "repro.distributed.worker"] + args,
        env=env or _src_path_env(), capture_output=True, text=True)


class TestPlanIO:
    def test_roundtrip_preserves_fingerprint(self, plan, tmp_path):
        path = save_plan(plan, str(tmp_path / "p.json"))
        loaded = load_plan(path)
        assert loaded == plan
        assert plan_fingerprint(loaded) == plan_fingerprint(plan)

    def test_doc_roundtrip(self, plan):
        assert plan_from_doc(plan_to_doc(plan)) == plan

    def test_truncated_file_rejected(self, plan, tmp_path):
        path = save_plan(plan, str(tmp_path / "p.json"))
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[: len(data) // 2])
        with pytest.raises(PlanFormatError, match="unreadable"):
            load_plan(path)

    def test_edited_runs_fail_fingerprint(self, plan, tmp_path):
        doc = plan_to_doc(plan)
        doc["runs"] = doc["runs"][:-1]
        with pytest.raises(PlanFormatError, match="fingerprint mismatch"):
            plan_from_doc(doc)

    def test_format_version_skew(self, plan):
        doc = plan_to_doc(plan)
        doc["format"] = 999
        with pytest.raises(PlanFormatError, match="format version"):
            plan_from_doc(doc)

    def test_missing_file(self, tmp_path):
        with pytest.raises(PlanFormatError):
            load_plan(str(tmp_path / "absent.json"))


class TestWritePartial:
    def test_partial_records_range_and_global_shards(self, plan, tmp_path):
        doc = write_partial(plan, 2, 5, str(tmp_path / "part"))
        assert (doc["start"], doc["stop"]) == (2, 5)
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["plan_fingerprint"] == plan_fingerprint(plan)
        assert [e["file"] for e in doc["entries"]] == [
            f"trace_{i:09d}.npz" for i in (2, 3, 4)]
        for entry in doc["entries"]:
            assert os.path.exists(tmp_path / "part" / entry["file"])
            assert entry["fold"] is None  # folds are merge-time
        assert doc["stats"]["wall_s"] >= 0
        assert doc["stats"]["peak_rss_mb"] > 0

    def test_reexecution_is_identical(self, plan, tmp_path):
        first = write_partial(plan, 0, 3, str(tmp_path / "a"))
        second = write_partial(plan, 0, 3, str(tmp_path / "b"))
        assert first["entries"] == second["entries"]
        assert first["plan_fingerprint"] == second["plan_fingerprint"]

    def test_invalid_range_rejected(self, plan, tmp_path):
        for start, stop in ((3, 3), (-1, 2), (0, len(plan.runs) + 1)):
            with pytest.raises(DistributedCampaignError, match="well-formed"):
                write_partial(plan, start, stop, str(tmp_path / "x"))

    def test_refuses_occupied_attempt_dir(self, plan, tmp_path):
        write_partial(plan, 0, 2, str(tmp_path / "part"))
        with pytest.raises(DistributedCampaignError, match="fresh attempt"):
            write_partial(plan, 0, 2, str(tmp_path / "part"))


class TestWorkerCLI:
    def test_clean_run_writes_partial(self, plan_path, tmp_path):
        out = str(tmp_path / "out")
        result = _run_worker(["--plan", plan_path, "--start", "0",
                              "--stop", "2", "--out", out])
        assert result.returncode == 0, result.stderr
        assert "range [0, 2) done" in result.stdout
        doc = json.load(open(partial_manifest_path(out)))
        assert len(doc["entries"]) == 2

    def test_crash_leaves_no_partial_manifest(self, plan_path, tmp_path):
        """A mid-range kill must be indistinguishable from 'not done':
        shards may exist, the partial manifest must not."""
        out = str(tmp_path / "out")
        env = _src_path_env()
        env[CRASH_AFTER_SHARDS_ENV] = "1"
        result = _run_worker(["--plan", plan_path, "--start", "0",
                              "--stop", "3", "--out", out], env=env)
        assert result.returncode == CRASH_EXIT_CODE
        assert not os.path.exists(partial_manifest_path(out))
        assert os.path.exists(os.path.join(out, "trace_000000000.npz"))

    def test_bad_range_exits_nonzero(self, plan_path, tmp_path):
        result = _run_worker(["--plan", plan_path, "--start", "5",
                              "--stop", "2", "--out", str(tmp_path / "o")])
        assert result.returncode == 2
        assert "well-formed" in result.stderr

    def test_missing_plan_exits_nonzero(self, tmp_path):
        result = _run_worker(["--plan", str(tmp_path / "absent.json"),
                              "--start", "0", "--stop", "1",
                              "--out", str(tmp_path / "o")])
        assert result.returncode == 2
        assert "unreadable plan" in result.stderr
