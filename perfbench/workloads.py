"""One repetition of one benchmark workload, in a fresh interpreter.

``run.py`` spawns this file once per repetition, so no in-process memo
cache (``_DATA_CACHE``, ``PROFILE_CACHE``, ``BASELINE_CACHE``) survives
from one repetition to the next::

    python3 perfbench/workloads.py --workload NAME --seed N --mode MODE

``MODE`` is ``measure`` (one timed repetition), ``setup`` (stop at the
first timed operation, so only set-up is paid), ``trace`` (a repetition
with the layer probes of :mod:`tracer` installed) or ``build`` (train
the serving monitors once per source tree).  The last line of standard
output is one JSON object; ``run.py`` aggregates those.

The workloads only call public functions of ``repro.experiments``,
``repro.simulation``, ``repro.core``, ``repro.ml`` and ``repro.serve``;
every output is checked, and each check feeds ``attempted``/``failed``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import pickle
import resource
import shutil
import sys
import tempfile
import time
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

from speed import SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: build outputs, scratch stores and span dumps (ignored by git)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
REFERENCE_PATH = os.path.join(HERE, "reference.json")

PLATFORMS = ("glucosym", "t1ds2013")
#: repro_ci reproduces the glucosym half of the paper: both platforms take
#: 71-115 s a run on a 2-vCPU Xeon, too long for the runs a benchmark
#: pass makes
REPRO_PLATFORM = "glucosym"
#: repro_ci trains with ExperimentConfig.seed = seed % REPRO_SEEDS; the
#: stage digests of each of these training seeds are in reference.json
REPRO_SEEDS = 4
#: campaign_small: the `small` preset's 3 patients, at the ci grid stride
#: (42 scenarios each) on both platforms -- 252 simulations
CAMPAIGN_STRIDE = 21


@dataclasses.dataclass(frozen=True)
class ServeSpec:
    kinds: tuple
    users: int
    ticks: int
    journal: bool


SERVE = {
    # shared-model kinds on a fleet, write-ahead journal on (fsync'd)
    "serve_stateless": ServeSpec(("CAWT", "CAWOT", "DT", "MLP"), 1000, 200,
                                 True),
    # per-user clones; the trained LSTM clone carries its training caches
    "serve_stateful": ServeSpec(("LSTM", "Guideline", "MPC"), 16, 300,
                                False),
}
#: ticks timed per single-kind service for serve.eval_ms.<kind>
EVAL_TICKS = 30

WORKLOADS = ("repro_ci", "campaign_small", "serve_stateless",
             "serve_stateful")


class SetupDone(Exception):
    """Raised at the first timed operation of a ``--mode setup`` run."""


def current_rss_kb() -> int:
    with open("/proc/self/statm") as fh:
        resident = int(fh.read().split()[1])
    return resident * os.sysconf("SC_PAGE_SIZE") // 1024


def peak_rss_kb() -> int:
    """Peak RSS since start, or since the last :func:`reset_peak_rss`."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def reset_peak_rss() -> None:
    """Restart :func:`peak_rss_kb` at the current RSS (Linux 4.0+)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:  # not permitted: the peak then spans the whole run
        pass


def short_digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


def load_reference(workload: str) -> dict:
    if not os.path.exists(REFERENCE_PATH):
        return {}
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


def source_digest() -> str:
    """Digest of the library sources and this file: the build key."""
    h = hashlib.sha256()
    paths = [os.path.abspath(__file__)]
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "repro")):
        dirnames.sort()
        paths += [os.path.join(dirpath, f) for f in sorted(filenames)
                  if f.endswith(".py")]
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def models_path() -> str:
    return os.path.join(BUILD_DIR, f"serve-models-{source_digest()}.pkl")


class Rep:
    """Timing, memory and check bookkeeping of one repetition.

    Raw step and wall times are divided by the host's slowdown
    (:mod:`speed`): by the slowdown the workload measured around each step
    (serving), or by the mean of the background samples taken during the
    step.  The wall time is divided by the steps' time-weighted slowdown.
    """

    def __init__(self, mode: str, rec=None):
        self.mode = mode
        self.rec = rec
        self.probe = SpeedProbe()
        self.out: Dict[str, object] = {"attempted": 0, "failed": 0,
                                       "raw_steps_ms": [], "digests": {},
                                       "layer": {}}
        self._step_windows: List[tuple] = []
        self.rss_before: Optional[int] = None
        self.peak_before = 0
        self.root: Optional[int] = None
        self._counters_at_begin: Dict[str, float] = {}
        self._background = False

    def mark_rss(self) -> None:
        """Start ``rss_growth_kb``: the peak RSS from here on, less the RSS
        here (default: at :meth:`begin`).  A peak, because heap the
        workload frees stays resident until the allocator returns it, at
        a time no workload controls."""
        self.peak_before = peak_rss_kb()
        self.rss_before = current_rss_kb()
        reset_peak_rss()

    def begin(self, background_probe: bool = True) -> None:
        """Set-up ends here: the next statement is the first timed one."""
        self.out["first_op"] = time.monotonic()
        self.out["setup_speed"] = self.probe.burst()
        if self.mode == "setup":
            raise SetupDone
        if self.rss_before is None:
            self.mark_rss()
        if self.rec is not None:
            self._counters_at_begin = dict(self.rec.counters)
            self.root = self.rec.open("bench.measure")
        self._background = background_probe
        if background_probe:
            self.probe.start()
        self._t0 = perf_counter()

    def end(self, wall_s: Optional[float] = None,
            step_speeds: Optional[List[float]] = None) -> None:
        """Close the measured phase; *wall_s* overrides the elapsed time
        and *step_speeds* gives each step's own slowdown."""
        elapsed = perf_counter() - self._t0
        if self._background:
            self.probe.stop()
        if self.rec is not None:
            self.rec.close(self.root)
            self.out["counters"] = {
                k: v - self._counters_at_begin.get(k, 0.0)
                for k, v in self.rec.counters.items()}
        raw_steps = self.out["raw_steps_ms"]
        raw_wall = elapsed if wall_s is None else wall_s
        if step_speeds is None:
            step_speeds = [self.probe.slowdown(start, end)
                           for start, end in self._step_windows]
        speed = sum(raw_steps) / sum(
            ms / f for ms, f in zip(raw_steps, step_speeds))
        self.out["steps_ms"] = [ms / f for ms, f in zip(raw_steps,
                                                        step_speeds)]
        self.out["speed"] = speed
        self.out["raw_wall_s"] = raw_wall
        self.out["wall_s"] = raw_wall / speed
        self.out["rss_growth_kb"] = peak_rss_kb() - self.rss_before

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(...)``, inside a span when traced."""
        if self.rec is None:
            return fn(*args, **kwargs)
        return self.rec.call(name, fn, *args, **kwargs)

    def step(self, seconds: float) -> None:
        """Record a step that took *seconds* and ended just now."""
        end = perf_counter()
        self.out["raw_steps_ms"].append(seconds * 1e3)
        self._step_windows.append((end - seconds, end))

    def check(self, n_ops: int, n_failed: int) -> None:
        self.out["attempted"] += n_ops
        self.out["failed"] += n_failed

    def layer(self, **metrics) -> None:
        self.out["layer"].update(metrics)


# ----------------------------------------------------------------------
# repro_ci: every table and figure of one platform, ci preset
# ----------------------------------------------------------------------

def _stages():
    from repro.experiments import (platform_data, run_adversarial_ablation,
                                   run_fault_free_generalisation, run_fig7,
                                   run_fig8, run_fig9,
                                   run_multiclass_ablation, run_overhead,
                                   run_table5, run_table6, run_table7,
                                   run_table8)
    # the order scripts/generate_experiments_report.py runs them in, with
    # the shared simulation (which fig7 would otherwise trigger) split out
    return (("platform_data", platform_data), ("fig7", run_fig7),
            ("fig8", run_fig8), ("table5", run_table5),
            ("table6", run_table6), ("fig9", run_fig9),
            ("table7", run_table7), ("table8", run_table8),
            ("adversarial", run_adversarial_ablation),
            ("multiclass", run_multiclass_ablation),
            ("fault_free_gen", run_fault_free_generalisation),
            ("overhead", run_overhead))


def stage_digest(name: str, result) -> str:
    if name == "platform_data":
        hazardous = sum(bool(t.hazardous) for t in result.traces)
        text = f"{len(result.traces)} {len(result.fault_free)} {hazardous}"
    elif name == "overhead":
        # the measured per-decision times are timings, not outputs
        text = "\n".join([result.title] + [f"{row[0]} {row[2]}"
                                           for row in result.rows]
                         + list(result.notes))
    else:
        text = result.text()
    return short_digest(text.encode("utf-8"))


def repro_ci(rep: Rep, seed: int) -> None:
    from repro.experiments import ExperimentConfig, run_fig3

    training_seed = seed % REPRO_SEEDS
    config = dataclasses.replace(
        ExperimentConfig.preset("ci", platform=REPRO_PLATFORM),
        seed=training_seed)
    stages = [("fig3", "fig3", lambda: run_fig3(None))]
    stages += [(f"{config.platform}/{name}", name,
                lambda fn=fn: fn(config)) for name, fn in _stages()]
    reference = load_reference("repro_ci").get(str(training_seed), {})

    rep.begin()
    rep.out["ops"] = len(stages)
    results = []
    for key, name, fn in stages:
        start = perf_counter()
        results.append((key, name, rep.call(f"experiments.{name}", fn)))
        rep.step(perf_counter() - start)
    rep.end()

    for key, name, result in results:
        digest = stage_digest(name, result)
        rep.out["digests"][key] = digest
        rep.check(1, int(reference.get(key) != digest))
    if rep.rec is not None:
        rep.layer(**{f"experiments.{name}_s":
                     rep.rec.total(f"experiments.{name}")
                     for _, name, _ in stages})


# ----------------------------------------------------------------------
# campaign_small: simulate into the store, reopen, learn, replay
# ----------------------------------------------------------------------

def _spanned_sink(rec, writer):
    from repro.simulation import TraceSink

    class SpannedSink(TraceSink):
        """Times the store's share of a streamed campaign."""

        def write(self, trace) -> None:
            rec.call("store.write", writer.write, trace)

    return SpannedSink()


def _tree_bytes(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(dirpath, f))
               for dirpath, _, files in os.walk(directory) for f in files)


def campaign_small(rep: Rep, seed: int) -> None:
    # the fault grid is fixed by the paper and nothing here trains, so the
    # seed changes no input of this workload
    from repro.baselines import GuidelineMonitor, MPCMonitor
    from repro.core import cawot_monitor, cawt_monitor, learn_thresholds
    from repro.experiments import ExperimentConfig
    from repro.fi import CampaignConfig, generate_campaign
    from repro.simulation import (CampaignStoreWriter, TraceDataset,
                                  plan_campaign, plan_fingerprint,
                                  replay_campaign, replay_many, run_campaign)

    runs = []
    for platform in PLATFORMS:
        config = dataclasses.replace(
            ExperimentConfig.preset("small", platform=platform),
            stride=CAMPAIGN_STRIDE)
        scenarios = generate_campaign(CampaignConfig(stride=config.stride))
        plan = plan_campaign(platform, config.patients, scenarios,
                             n_steps=config.n_steps)
        runs.append((config, scenarios, plan))
    reference = load_reference("campaign_small")
    os.makedirs(BUILD_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="campaign-", dir=BUILD_DIR)
    try:
        rep.begin()
        rep.out["ops"] = sum(len(plan.runs) for _, _, plan in runs)
        outputs = []
        for config, scenarios, plan in runs:
            directory = os.path.join(workdir, config.platform)
            start = perf_counter()
            with CampaignStoreWriter(directory, config.platform,
                                     config.n_steps,
                                     folds=config.folds) as writer:
                sink = writer if rep.rec is None else _spanned_sink(
                    rep.rec, writer)
                run_campaign(config.platform, config.patients, scenarios,
                             n_steps=config.n_steps, sink=sink)
            rep.step(perf_counter() - start)

            start = perf_counter()
            dataset = TraceDataset.open(directory)
            thresholds = {
                pid: learn_thresholds(dataset.by_patient(pid),
                                      window=config.mining_window).thresholds
                for pid in config.patients}
            rep.step(perf_counter() - start)

            start = perf_counter()
            alerts: List[List[np.ndarray]] = [[] for _ in range(len(dataset))]
            for pid in config.patients:
                streams = replay_many(cawt_monitor(thresholds[pid]),
                                      dataset.by_patient(pid))
                for index, stream in zip(dataset.indices(pid), streams):
                    alerts[index].append(stream)
            baselines = replay_campaign(
                {"CAWOT": cawot_monitor(), "Guideline": GuidelineMonitor(),
                 "MPC": MPCMonitor(horizon_steps=config.mpc_horizon)},
                dataset)
            for streams in baselines.values():
                for index, stream in enumerate(streams):
                    alerts[index].append(stream)
            rep.step(perf_counter() - start)
            outputs.append((config.platform, plan, dataset, alerts,
                            directory))
        rep.end()

        bytes_written = shard_loads = 0
        for platform, plan, dataset, alerts, directory in outputs:
            expected = reference.get(platform, [])
            fingerprint_ok = dataset.fingerprint == plan_fingerprint(plan)
            digests = [short_digest(*(a.tobytes() for a in streams))
                       for streams in alerts]
            rep.out["digests"][platform] = digests
            mismatched = sum(
                1 for i, digest in enumerate(digests)
                if i >= len(expected) or expected[i] != digest)
            rep.check(len(plan.runs), len(plan.runs) if not fingerprint_ok
                      or len(digests) != len(plan.runs) else mismatched)
            bytes_written += _tree_bytes(directory)
            shard_loads += dataset.stats.n_loads
        if rep.rec is not None:
            rep.layer(**{"store.bytes_written": bytes_written,
                         "store.shard_loads": shard_loads})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ----------------------------------------------------------------------
# serve_*: MonitorService under a seeded LoadGenerator fleet
# ----------------------------------------------------------------------

def build_models(path: str) -> None:
    """Train every serving monitor at ci scale (seed 0) and pickle them.

    Pickle, not ``MonitorRegistry.save``: a registry round trip rebuilds
    models from their parameters, while serving right after training keeps
    whatever else training left in memory, and per-user clones copy it.
    """
    from repro.core import cawt_monitor, learn_thresholds
    from repro.experiments import ExperimentConfig
    from repro.experiments.data import (baseline_monitors, ml_monitors,
                                        platform_data)

    config = ExperimentConfig.preset("ci")
    data = platform_data(config)
    monitors = {"CAWT": cawt_monitor(learn_thresholds(
        data.traces, window=config.mining_window).thresholds)}
    monitors.update(baseline_monitors(config))
    monitors.update(ml_monitors(data))
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    for name in os.listdir(directory):  # builds of other source trees
        if name.startswith("serve-models-"):
            os.remove(os.path.join(directory, name))
    with open(path + ".tmp", "wb") as fh:
        pickle.dump(monitors, fh, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(path + ".tmp", path)


@dataclasses.dataclass
class FleetRun:
    """What serving one tick sequence produced."""

    latencies: List[float] = dataclasses.field(default_factory=list)
    #: host slowdown (see speed.py) sampled before the first tick and
    #: after every tick
    speeds: List[float] = dataclasses.field(default_factory=list)
    #: per tick, ``monitor name -> np.packbits(alerts)``
    alerts: List[dict] = dataclasses.field(default_factory=list)
    raw_alerts: int = 0
    events: int = 0
    rejected: int = 0

    def tick_speeds(self) -> List[float]:
        """Each tick's slowdown: the mean of the probe samples taken just
        before and just after it, which bracket the tick."""
        return [(a + b) / 2 for a, b in zip(self.speeds, self.speeds[1:])]

    def normalized_ms(self) -> List[float]:
        return [1e3 * s / f for s, f in zip(self.latencies,
                                             self.tick_speeds())]


def _serve_fleet(service, ticks, probe: SpeedProbe,
                 rep: Optional[Rep] = None) -> FleetRun:
    """Process *ticks* back to back, sampling the speed probe between
    ticks; with *rep* each tick is a measured step (and a ``serve.tick``
    span when traced)."""
    run = FleetRun(speeds=[probe.sample()])
    for tick in ticks:
        start = perf_counter()
        if rep is not None:
            result = rep.call("serve.tick", service.process, tick)
        else:
            result = service.process(tick)
        run.latencies.append(perf_counter() - start)
        if rep is not None:
            rep.step(run.latencies[-1])
        run.speeds.append(probe.sample())
        run.alerts.append({name: np.packbits(flags)
                           for name, flags in result.alerts.items()})
        run.raw_alerts += int(sum(int(flags.sum())
                                  for flags in result.alerts.values()))
        run.events += len(result.events)
        run.rejected += len(result.rejected)
    return run


def _mismatched_users(a: List[dict], b: List[dict], n_users: int) -> int:
    """User-ticks whose alerts differ in any monitor between two runs."""
    if len(a) != len(b):
        return n_users * max(len(a), len(b))
    bad = 0
    for row_a, row_b in zip(a, b):
        if row_a.keys() != row_b.keys():
            bad += n_users
            continue
        differ = np.zeros(n_users, dtype=bool)
        for name in row_a:
            differ |= (np.unpackbits(row_a[name], count=n_users)
                       != np.unpackbits(row_b[name], count=n_users))
        bad += int(differ.sum())
    return bad


def _journal_bytes(directory: str) -> int:
    from repro.serve.persist import list_segments
    return sum(os.path.getsize(path) for _, path in list_segments(directory))


def serve(rep: Rep, seed: int, spec: ServeSpec) -> None:
    from repro.serve import LoadGenerator, MonitorService

    with open(models_path(), "rb") as fh:
        trained = pickle.load(fh)
    monitors = {kind: trained[kind] for kind in spec.kinds}
    del trained
    generator = LoadGenerator(spec.users, seed=seed)
    ticks = [generator.tick() for _ in range(spec.ticks + 1)]
    os.makedirs(BUILD_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="serve-", dir=BUILD_DIR)
    journaled_dir = os.path.join(workdir, "journaled")
    try:
        # the measured fleet runs with the spec's journal setting and the
        # reference fleet with the other one; whichever run journaled is
        # then snapshotted and recovered
        rep.mark_rss()
        service = MonitorService(
            monitors, persist_dir=journaled_dir if spec.journal else None)
        warmup = _serve_fleet(service, ticks[:1], rep.probe)
        rep.begin(background_probe=False)
        measured = _serve_fleet(service, ticks[1:], rep.probe, rep)
        rep.end(wall_s=sum(measured.latencies),
                step_speeds=measured.tick_speeds())
        rep.out["ops"] = spec.users * spec.ticks

        if spec.journal:
            journaled = service
            reference = _serve_fleet(MonitorService(monitors), ticks,
                                     rep.probe)
        else:
            # free the measured clones before the reference fleet clones
            del service
            gc.collect()
            journaled = MonitorService(monitors, persist_dir=journaled_dir)
            reference = _serve_fleet(journaled, ticks, rep.probe)
        journal_bytes = _journal_bytes(journaled_dir)
        start = perf_counter()
        journaled.snapshot()
        snapshot_s = perf_counter() - start
        journaled.close()
        del journaled
        gc.collect()
        start = perf_counter()
        recovered = MonitorService.recover(journaled_dir)
        recover_s = perf_counter() - start
        recovered_users = recovered.n_users
        recovered.close()
        del recovered

        failed = _mismatched_users(warmup.alerts + measured.alerts,
                                   reference.alerts, spec.users)
        failed += warmup.rejected + measured.rejected + reference.rejected
        if recovered_users != spec.users:
            failed += spec.users
        n_ops = spec.users * len(ticks)
        rep.check(n_ops, min(failed, n_ops))
        if rep.rec is not None:
            _serve_layers(rep, monitors, ticks, measured, reference,
                          spec.journal, journal_bytes, snapshot_s, recover_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _serve_layers(rep: Rep, monitors, ticks, measured: FleetRun,
                  reference: FleetRun, measured_journaled: bool,
                  journal_bytes: int, snapshot_s: float,
                  recover_s: float) -> None:
    from repro.serve import MonitorService

    from tracer import monitor_kind

    # the reference run includes the fleet's connect tick; measured does not
    on, off = measured.normalized_ms(), reference.normalized_ms()[1:]
    if not measured_journaled:
        on, off = off, on
    metrics = {
        "serve.raw_alerts": measured.raw_alerts,
        "serve.events": measured.events,
        "persist.journal_overhead": float(np.median(on) / np.median(off)
                                          - 1.0),
        "persist.journal_bytes_per_tick": journal_bytes / len(ticks),
        "persist.snapshot_s": snapshot_s,
        "persist.recover_s": recover_s,
    }
    for name, monitor in monitors.items():
        kind = monitor_kind(monitor)
        metrics[f"serve.state_bytes_per_user.{kind}"] = len(pickle.dumps(
            monitor.clone(), protocol=pickle.HIGHEST_PROTOCOL))
        single = _serve_fleet(MonitorService({name: monitor}),
                              ticks[:EVAL_TICKS + 1], rep.probe)
        metrics[f"serve.eval_ms.{kind}"] = float(
            np.median(single.normalized_ms()[1:]))
        gc.collect()
    rep.layer(**metrics)


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def env_info() -> Dict[str, object]:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    return {"nproc": os.cpu_count(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def _trace_layers(rep: Rep) -> None:
    """Per-layer metrics every traced workload reports from its spans."""
    from tracer import MONITOR_KINDS

    rec, counters = rep.rec, rep.out.get("counters", {})
    learn_self = sum(own for span, own in zip(rec.spans, rec.self_times())
                     if span[0] == "learning.learn")
    metrics = {
        "simulation.campaign_s": rec.total("simulation.campaign"),
        "simulation.fault_free_s": rec.total("simulation.fault_free"),
        "simulation.mitigated_s": rec.total("simulation.mitigated"),
        "simulation.warm_profiles_s": rec.total("simulation.warm_profiles"),
        "simulation.sims": counters.get("simulation.sims", 0),
        "store.write_s": rec.total("store.write"),
        "store.read_s": rec.total("store.read"),
        "replay.traces": counters.get("replay.traces", 0),
        "learning.mine_s": rec.total("learning.mine"),
        "learning.fit_s": learn_self,
        "ml.dataset_s": rec.total("ml.dataset"),
        "ml.lstm_forward_calls": counters.get("ml.lstm_forward_calls", 0),
        "ml.mlp_predict_rows_calls": counters.get(
            "ml.mlp_predict_rows_calls", 0),
    }
    for kind in MONITOR_KINDS:
        metrics[f"replay.{kind}_s"] = counters.get(f"replay.{kind}_s", 0.0)
    for kind in ("dt", "mlp", "lstm"):
        metrics[f"ml.train_s.{kind}"] = rec.total(f"ml.train.{kind}")
    for layer, own in rec.layer_self_times(rep.root).items():
        metrics[f"self_s.{layer}"] = own
    rep.out["layer"] = {**metrics, **rep.out["layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", required=True,
                        choices=("measure", "setup", "trace", "build"))
    args = parser.parse_args(argv)
    if args.mode == "build":
        build_models(models_path())
        print(json.dumps({"built": models_path()}))
        return 0

    rec = None
    if args.mode == "trace":
        from tracer import SpanRecorder, install_probes
        rec = SpanRecorder(f"{args.workload}-s{args.seed}-{os.getpid()}-"
                           f"{time.time_ns()}")
        install_probes(rec)
    rep = Rep(args.mode, rec)
    try:
        if args.workload == "repro_ci":
            repro_ci(rep, args.seed)
        elif args.workload == "campaign_small":
            campaign_small(rep, args.seed)
        else:
            serve(rep, args.seed, SERVE[args.workload])
    except SetupDone:
        pass
    if rec is not None:
        rec.restore()
        _trace_layers(rep)
        os.makedirs(BUILD_DIR, exist_ok=True)
        rec.dump(os.path.join(BUILD_DIR, f"trace-{rec.run_id}.json"))
    rep.out["peak_rss_kb"] = max(rep.peak_before, peak_rss_kb())
    rep.out["env"] = env_info()
    rep.out.pop("counters", None)
    print(json.dumps(rep.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
