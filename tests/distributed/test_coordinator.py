"""Coordinator battery: multi-worker parity plus the chaos matrix.

Every scenario ends in exactly one of the two allowed states: a merged
dataset byte-identical to the single-box reference, or a typed
:class:`DistributedCampaignError`.  Workers here are real subprocesses
(the ``python -m repro.distributed.worker`` entrypoint), so crashes are
real ``os._exit`` deaths and stragglers are really killed.
"""

import os

import pytest

from repro.distributed import (DistributedCampaignError, FlakyLauncher,
                               LocalLauncher, SSHLauncher, WorkerError,
                               WorkerSpec, run_distributed_campaign)
from repro.parallel import partition_ranges
from repro.simulation import CampaignExecutor, TraceDataset
from repro.simulation.store import plan_fingerprint
from tests.conftest import LOCKSTEP_WIDTHS

FOLDS = 2


def _manifest_bytes(directory):
    with open(os.path.join(directory, "manifest.json"), "rb") as fh:
        return fh.read()


def _assert_byte_identical(out_dir, reference_manifest_bytes):
    assert _manifest_bytes(out_dir) == reference_manifest_bytes


class TestCleanRuns:
    def test_two_host_parity(self, plan, tmp_path, reference_manifest_bytes):
        out = str(tmp_path / "out")
        result = run_distributed_campaign(plan, out, n_hosts=2, folds=FOLDS)
        _assert_byte_identical(out, reference_manifest_bytes)
        assert result.manifest["fingerprint"] == plan_fingerprint(plan)
        assert result.retries == 0
        assert len(result.stats) == len(result.ranges) == 2
        for stat in result.stats:
            assert stat["host"] and stat["wall_s"] >= 0
        # scratch is cleaned up after a successful merge
        assert not os.path.exists(out + ".work")

    def test_host_count_is_a_wall_clock_knob(self, plan, tmp_path,
                                             reference_manifest_bytes,
                                             set_lockstep_width,
                                             assert_traces_equal):
        """n_hosts never changes the dataset, and neither does the
        lock-step width — the parity contract, one level up from
        workers= and LOCKSTEP_WIDTH."""
        for n_hosts in (1, 3):
            out = str(tmp_path / f"out{n_hosts}")
            run_distributed_campaign(plan, out, n_hosts=n_hosts, folds=FOLDS)
            _assert_byte_identical(out, reference_manifest_bytes)
        merged = TraceDataset.open(out)
        for width in LOCKSTEP_WIDTHS:
            set_lockstep_width(width)
            fresh = CampaignExecutor(1).run(plan)
            assert len(fresh) == len(merged)
            for stored, trace in zip(merged, fresh):
                assert_traces_equal(stored, trace)

    def test_keep_work_preserves_partials(self, plan, tmp_path):
        out = str(tmp_path / "out")
        run_distributed_campaign(plan, out, n_hosts=2, keep_work=True)
        work = out + ".work"
        assert os.path.exists(os.path.join(work, "plan.json"))
        assert any(name.startswith("range_") for name in os.listdir(work))

    def test_empty_plan_rejected(self, plan, tmp_path):
        import dataclasses
        empty = dataclasses.replace(plan, runs=())
        with pytest.raises(DistributedCampaignError, match="empty"):
            run_distributed_campaign(empty, str(tmp_path / "out"))


class TestChaos:
    def test_worker_crash_mid_range_recovers(self, plan, tmp_path,
                                             reference_manifest_bytes):
        """A hard mid-range death (os._exit, shards written, no partial
        manifest) is retried into a fresh attempt dir and the merged
        result is still byte-identical."""
        ranges = partition_ranges(len(plan.runs), 2)
        launcher = FlakyLauncher(crash_ranges={ranges[0]: 1})
        out = str(tmp_path / "out")
        result = run_distributed_campaign(plan, out, n_hosts=2,
                                          launcher=launcher, folds=FOLDS)
        _assert_byte_identical(out, reference_manifest_bytes)
        assert result.retries == 1
        attempts = [s.attempt for s in launcher.launched
                    if s.range_key == ranges[0]]
        assert attempts == [0, 1]

    def test_straggler_timeout_retry_identical(self, plan, tmp_path,
                                               reference_manifest_bytes):
        ranges = partition_ranges(len(plan.runs), 2)
        launcher = FlakyLauncher(stall_ranges={ranges[1]: 60.0})
        out = str(tmp_path / "out")
        result = run_distributed_campaign(plan, out, n_hosts=2,
                                          launcher=launcher, folds=FOLDS,
                                          timeout_s=5.0)
        _assert_byte_identical(out, reference_manifest_bytes)
        assert result.retries == 1

    def test_both_ranges_crash_then_recover(self, plan, tmp_path,
                                            reference_manifest_bytes):
        ranges = partition_ranges(len(plan.runs), 2)
        launcher = FlakyLauncher(crash_ranges={r: 1 for r in ranges})
        out = str(tmp_path / "out")
        result = run_distributed_campaign(plan, out, n_hosts=2,
                                          launcher=launcher, folds=FOLDS)
        _assert_byte_identical(out, reference_manifest_bytes)
        assert result.retries == 2

    def test_reordered_completions(self, plan, tmp_path,
                                   reference_manifest_bytes):
        """The first range finishing *last* (a tolerable straggler, no
        timeout set) changes nothing about the merged dataset."""
        ranges = partition_ranges(len(plan.runs), 2)
        launcher = FlakyLauncher(stall_ranges={ranges[0]: 1.5})
        out = str(tmp_path / "out")
        result = run_distributed_campaign(plan, out, n_hosts=2,
                                          launcher=launcher, folds=FOLDS)
        _assert_byte_identical(out, reference_manifest_bytes)
        assert result.retries == 0

    def test_retries_exhausted_raises_worker_error(self, plan, tmp_path):
        ranges = partition_ranges(len(plan.runs), 2)
        launcher = FlakyLauncher(crash_ranges={ranges[0]: 1},
                                 fail_attempts=99)
        out = str(tmp_path / "out")
        with pytest.raises(WorkerError, match="no retries left"):
            run_distributed_campaign(plan, out, n_hosts=2, launcher=launcher,
                                     max_retries=1)
        # no dataset materialises on failure
        assert not os.path.exists(os.path.join(out, "manifest.json"))

    def test_worker_error_is_typed(self, plan, tmp_path):
        launcher = FlakyLauncher(
            crash_ranges={r: 0 for r in partition_ranges(len(plan.runs), 2)},
            fail_attempts=99)
        with pytest.raises(DistributedCampaignError):
            run_distributed_campaign(plan, str(tmp_path / "out"), n_hosts=2,
                                     launcher=launcher, max_retries=0)


class TestLaunchers:
    def test_worker_argv_roundtrip(self):
        spec = WorkerSpec(start=3, stop=9, attempt=1, plan_path="/w/plan.json",
                          out_dir="/w/r/attempt1", workers=2)
        argv = spec.worker_argv()
        assert argv[:2] == ["-m", "repro.distributed.worker"]
        for flag, value in (("--plan", "/w/plan.json"), ("--start", "3"),
                            ("--stop", "9"), ("--out", "/w/r/attempt1"),
                            ("--workers", "2")):
            assert value == argv[argv.index(flag) + 1]
        # the lock-step width is not a worker knob
        assert not any("batch" in arg for arg in argv)

    def test_local_launcher_env_overlay(self):
        launcher = LocalLauncher(env={"REPRO_DIST_SLEEP_SECONDS": "1"})
        spec = WorkerSpec(start=0, stop=1, attempt=0, plan_path="p",
                          out_dir="o")
        env = launcher._worker_env(spec)
        assert env["REPRO_DIST_SLEEP_SECONDS"] == "1"
        assert any(os.path.isdir(os.path.join(part, "repro"))
                   for part in env["PYTHONPATH"].split(os.pathsep))

    def test_ssh_command_shape(self):
        launcher = SSHLauncher(hosts=["nodeA", "nodeB"],
                               remote_src="/mnt/repo/src")
        spec = WorkerSpec(start=0, stop=4, attempt=0,
                          plan_path="/mnt/work/plan.json",
                          out_dir="/mnt/work/range/attempt0")
        argv = launcher.command_for(spec, "nodeA")
        assert argv[0] == "ssh"
        assert "nodeA" in argv
        remote = argv[-1]
        assert "PYTHONPATH=/mnt/repo/src" in remote
        assert "repro.distributed.worker" in remote
        assert "--start 0 --stop 4" in remote

    def test_ssh_requires_hosts(self):
        with pytest.raises(ValueError, match="at least one host"):
            SSHLauncher(hosts=[])
