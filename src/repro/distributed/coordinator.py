"""Distributed campaign coordinator: partition, dispatch, retry, merge.

:func:`run_distributed_campaign` scales :func:`~repro.simulation.batch.run_campaign`
past one box without changing what it produces.  The flow:

1. **Partition** — the plan's runs are split into per-host half-open
   ranges by :func:`~repro.parallel.partition_ranges`, i.e. the exact
   chunk boundaries a single-box chunked executor would use: derived
   from ``(n_runs, n_hosts)`` alone, deterministic, disjoint, covering.
2. **Dispatch** — each range goes to a worker entrypoint
   (``python -m repro.distributed.worker``) through a *launcher*.
   :class:`LocalLauncher` runs workers as local subprocesses;
   :class:`SSHLauncher` runs the same command line over ``ssh`` against
   a shared filesystem.  Either way the worker writes its shards and a
   partial manifest into a per-attempt directory under the work dir.
3. **Retry** — a worker that exits non-zero, dies mid-range, or
   straggles past ``timeout_s`` is killed and its range re-dispatched
   into a **fresh attempt directory**, up to ``max_retries`` extra
   attempts; past the budget the campaign raises a typed
   :class:`~repro.distributed.errors.WorkerError`.  Re-execution is
   idempotent because ranges are deterministic — a retry reproduces the
   identical partial, and if a killed straggler had in fact finished,
   :func:`~repro.distributed.merge.merge_manifests` deduplicates the
   exact-duplicate delivery.
4. **Merge** — every valid partial is assembled by ``merge_manifests``
   with ``expect_fingerprint=plan_fingerprint(plan)``, yielding a
   dataset byte-identical to a single-box ``run_campaign`` over the
   same plan (the acceptance criterion the chaos battery pins down).

``n_hosts``, the launcher, timeouts and retry budgets are wall-clock
knobs in the sense of the executor parity contract: they never change
the merged dataset, only how long it takes to exist.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..parallel import partition_ranges
from ..simulation.executor import CampaignPlan
from ..simulation.store import plan_fingerprint
from .errors import DistributedCampaignError, WorkerError
from .merge import load_partial, merge_manifests
from .planio import save_plan

__all__ = ["WorkerSpec", "LocalLauncher", "SSHLauncher",
           "DistributedCampaignResult", "run_distributed_campaign"]


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a launcher needs to start one range attempt."""

    start: int
    stop: int
    attempt: int
    plan_path: str
    out_dir: str
    workers: Optional[int] = None

    @property
    def range_key(self) -> Tuple[int, int]:
        return (self.start, self.stop)

    def worker_argv(self) -> List[str]:
        """The ``python -m repro.distributed.worker`` arguments (past the
        interpreter) that execute this spec."""
        argv = ["-m", "repro.distributed.worker",
                "--plan", self.plan_path,
                "--start", str(self.start), "--stop", str(self.stop),
                "--out", self.out_dir]
        if self.workers is not None:
            argv += ["--workers", str(self.workers)]
        return argv


class WorkerHandle:
    """A launched worker process the coordinator can poll or kill."""

    def __init__(self, proc: subprocess.Popen, log_path: str):
        self.proc = proc
        self.log_path = log_path

    def poll(self) -> Optional[int]:
        """Exit code if the worker finished, else ``None``."""
        return self.proc.poll()

    def kill(self) -> None:
        """Hard-stop the worker (straggler timeout); idempotent."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def log_tail(self, max_chars: int = 800) -> str:
        try:
            with open(self.log_path, "r", encoding="utf-8",
                      errors="replace") as fh:
                return fh.read()[-max_chars:]
        except OSError:
            return "<no worker log>"


def _src_root() -> str:
    """The directory that must be on a worker's ``PYTHONPATH`` for
    ``import repro`` to resolve to this checkout."""
    import repro
    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


class LocalLauncher:
    """Run range workers as local subprocesses.

    This is both the single-box multi-process backend and the test
    double for real multi-host dispatch: the command line is identical
    to what :class:`SSHLauncher` ships to a remote shell.  *env* entries
    overlay the inherited environment (the chaos battery injects its
    crash/straggler hooks here); ``PYTHONPATH`` is extended with this
    checkout's ``src`` so workers import the same code the coordinator
    runs.  Worker stdout/stderr land in ``<out_dir>.log`` next to the
    attempt directory.
    """

    def __init__(self, python: Optional[str] = None,
                 env: Optional[Dict[str, str]] = None):
        self.python = python or sys.executable
        self.env = dict(env or {})

    def _worker_env(self, spec: WorkerSpec) -> Dict[str, str]:
        env = dict(os.environ)
        path = _src_root()
        if env.get("PYTHONPATH"):
            path = path + os.pathsep + env["PYTHONPATH"]
        env["PYTHONPATH"] = path
        env.update(self.env)
        return env

    def launch(self, spec: WorkerSpec) -> WorkerHandle:
        os.makedirs(os.path.dirname(spec.out_dir) or ".", exist_ok=True)
        log_path = spec.out_dir + ".log"
        log = open(log_path, "w", encoding="utf-8")
        try:
            proc = subprocess.Popen([self.python] + spec.worker_argv(),
                                    stdout=log, stderr=subprocess.STDOUT,
                                    env=self._worker_env(spec))
        finally:
            log.close()
        return WorkerHandle(proc, log_path)


class SSHLauncher(LocalLauncher):
    """Run range workers over ``ssh`` against a shared filesystem.

    Hosts are used round-robin per launch.  The remote side needs the
    repository checkout and the plan/work directories at the same paths
    as the coordinator (NFS or equivalent); ``remote_src`` overrides the
    ``PYTHONPATH`` root when the checkout lives elsewhere remotely.
    Exit-code and log semantics match :class:`LocalLauncher` — ``ssh``
    propagates the remote exit status — so the coordinator's retry loop
    is launcher-agnostic.
    """

    def __init__(self, hosts: Sequence[str], python: str = "python3",
                 ssh_argv: Sequence[str] = ("ssh", "-o", "BatchMode=yes"),
                 remote_src: Optional[str] = None,
                 env: Optional[Dict[str, str]] = None):
        if not hosts:
            raise ValueError("SSHLauncher needs at least one host")
        super().__init__(python=python, env=env)
        self.hosts = list(hosts)
        self.ssh_argv = list(ssh_argv)
        self.remote_src = remote_src
        self._next_host = 0

    def command_for(self, spec: WorkerSpec, host: str) -> List[str]:
        """The full ``ssh`` argv that executes *spec* on *host*."""
        import shlex
        src = self.remote_src or _src_root()
        overlay = {"PYTHONPATH": src, **self.env}
        assigns = " ".join(f"{key}={shlex.quote(value)}"
                           for key, value in sorted(overlay.items()))
        remote = " ".join([assigns, shlex.quote(self.python)]
                          + [shlex.quote(arg) for arg in spec.worker_argv()])
        return self.ssh_argv + [host, remote]

    def launch(self, spec: WorkerSpec) -> WorkerHandle:
        host = self.hosts[self._next_host % len(self.hosts)]
        self._next_host += 1
        os.makedirs(os.path.dirname(spec.out_dir) or ".", exist_ok=True)
        log_path = spec.out_dir + ".log"
        log = open(log_path, "w", encoding="utf-8")
        try:
            proc = subprocess.Popen(self.command_for(spec, host),
                                    stdout=log, stderr=subprocess.STDOUT)
        finally:
            log.close()
        return WorkerHandle(proc, log_path)


@dataclass
class DistributedCampaignResult:
    """What a completed distributed campaign leaves behind."""

    out_dir: str
    manifest: dict
    ranges: List[Tuple[int, int]]
    stats: List[dict] = field(default_factory=list)
    retries: int = 0
    wall_s: float = 0.0


def _attempt_dir(work_dir: str, start: int, stop: int, attempt: int) -> str:
    return os.path.join(work_dir, f"range_{start:09d}_{stop:09d}",
                        f"attempt{attempt}")


def _valid_partial_dir(directory: str) -> bool:
    try:
        load_partial(directory)
    except DistributedCampaignError:
        return False
    return True


def run_distributed_campaign(plan: CampaignPlan, out_dir: str,
                             n_hosts: int = 2,
                             launcher: Optional[LocalLauncher] = None,
                             folds: Optional[int] = None,
                             timeout_s: Optional[float] = None,
                             max_retries: int = 2,
                             poll_interval_s: float = 0.05,
                             max_inflight: Optional[int] = None,
                             work_dir: Optional[str] = None,
                             keep_work: bool = False,
                             worker_processes: Optional[int] = None
                             ) -> DistributedCampaignResult:
    """Execute *plan* across *n_hosts* range workers into *out_dir*.

    The merged dataset at *out_dir* is byte-identical to the single-box
    store a ``CampaignStoreWriter(out_dir, plan.platform, plan.n_steps,
    folds=folds)`` fed by ``CampaignExecutor().run(plan, sink=...)``
    writes, regardless of *n_hosts*, the launcher, stragglers or retries.

    Parameters beyond the store-facing ones are wall-clock knobs:
    *timeout_s* is the per-attempt straggler budget (``None``: wait
    forever), *max_retries* the extra attempts per range before a
    :class:`WorkerError`, *max_inflight* caps concurrent workers
    (default *n_hosts*), and *worker_processes* sets each worker's local
    fan-out.  The scratch *work_dir* (default
    ``<out_dir>.work``) holds the serialized plan, per-attempt partial
    directories and worker logs; it is removed after a successful merge
    unless *keep_work* is set.

    Raises :class:`DistributedCampaignError` for an empty plan or a
    scratch collision, :class:`WorkerError` when a range exhausts its
    retry budget, and :class:`MergeManifestError` if the collected
    partials cannot be assembled (which, after a clean run, indicates a
    determinism bug rather than an operational failure).
    """
    if not plan.runs:
        raise DistributedCampaignError(
            "cannot distribute an empty campaign plan")
    if n_hosts < 1:
        raise DistributedCampaignError(
            f"n_hosts must be >= 1, got {n_hosts}")
    if max_retries < 0:
        raise DistributedCampaignError(
            f"max_retries must be >= 0, got {max_retries}")
    launcher = launcher if launcher is not None else LocalLauncher()
    work_dir = work_dir or out_dir.rstrip(os.sep) + ".work"
    os.makedirs(work_dir, exist_ok=True)
    plan_path = save_plan(plan, os.path.join(work_dir, "plan.json"))

    started = time.perf_counter()
    ranges = partition_ranges(len(plan.runs), n_hosts)
    max_inflight = max_inflight or n_hosts
    pending: List[Tuple[int, int, int]] = [(a, b, 0) for a, b in ranges]
    running: List[Tuple[WorkerSpec, WorkerHandle, Optional[float]]] = []
    done_dirs: Dict[Tuple[int, int], List[str]] = {key: [] for key in ranges}
    stats: List[dict] = []
    retries = 0

    def dispatch_failure(spec: WorkerSpec, handle: WorkerHandle,
                         why: str) -> None:
        nonlocal retries
        # a killed straggler may have finished before the kill landed —
        # its partial is valid and identical, so accept it (the merge
        # dedups if the retry also completes)
        if _valid_partial_dir(spec.out_dir):
            done_dirs[spec.range_key].append(spec.out_dir)
            return
        if spec.attempt >= max_retries:
            raise WorkerError(
                f"range [{spec.start}, {spec.stop}) failed {why} on "
                f"attempt {spec.attempt} with no retries left "
                f"(max_retries={max_retries}); last log: "
                f"{handle.log_tail()!r}")
        retries += 1
        pending.append((spec.start, spec.stop, spec.attempt + 1))

    try:
        while pending or running:
            while pending and len(running) < max_inflight:
                start, stop, attempt = pending.pop(0)
                spec = WorkerSpec(
                    start=start, stop=stop, attempt=attempt,
                    plan_path=plan_path,
                    out_dir=_attempt_dir(work_dir, start, stop, attempt),
                    workers=worker_processes)
                handle = launcher.launch(spec)
                deadline = (time.monotonic() + timeout_s
                            if timeout_s is not None else None)
                running.append((spec, handle, deadline))

            still_running = []
            for spec, handle, deadline in running:
                code = handle.poll()
                if code is None:
                    if deadline is not None and time.monotonic() > deadline:
                        handle.kill()
                        dispatch_failure(spec, handle,
                                         f"as a straggler (> {timeout_s}s)")
                    else:
                        still_running.append((spec, handle, deadline))
                elif code == 0 and _valid_partial_dir(spec.out_dir):
                    done_dirs[spec.range_key].append(spec.out_dir)
                    stats.append({"start": spec.start, "stop": spec.stop,
                                  "attempt": spec.attempt,
                                  **load_partial(spec.out_dir)["stats"]})
                else:
                    dispatch_failure(
                        spec, handle,
                        f"with exit code {code}" if code != 0
                        else "leaving an invalid partial manifest")
            running = still_running
            if running:
                time.sleep(poll_interval_s)
    finally:
        for _spec, handle, _deadline in running:
            handle.kill()

    # merge sees every valid delivery — including exact duplicates from
    # accepted stragglers, which it collapses idempotently
    partial_dirs = [d for key in ranges for d in done_dirs[key]]
    manifest = merge_manifests(partial_dirs, out_dir, folds=folds,
                               expect_fingerprint=plan_fingerprint(plan))
    if not keep_work:
        shutil.rmtree(work_dir, ignore_errors=True)
    return DistributedCampaignResult(
        out_dir=out_dir, manifest=manifest, ranges=ranges, stats=stats,
        retries=retries, wall_s=time.perf_counter() - started)
