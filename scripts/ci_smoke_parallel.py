"""CI smoke check: parallel execution, the on-disk store, the training
fan-out and batched monitor replay must all be exact at any worker count.

Runs the ``ci``-scale fault-injection grid in-process and through a
2-worker process pool (the same lock-step batches either way),
asserting that the two trace streams are identical (every array
channel byte for byte, with its dtype and shape, and every metadata
field).  This is the determinism guarantee
the campaign executor is built on.  The same
traces are then streamed through a :class:`CampaignStoreWriter` into a
temporary on-disk dataset, lazily reopened as a :class:`TraceDataset` and
compared element-wise again (plus a plan-fingerprint check), so the
write-once/replay-many store is covered by the same every-push smoke;
every shard must also load through ``np.load`` into the arrays the
store's own reader returned, so shards stay plain npz any numpy reads.
The DT/MLP/LSTM :class:`TrainingJob` grid is trained serially and
through the worker pool and the resulting monitors are compared parameter
by parameter — the training-parity contract of ``repro.ml.training``.
Every monitor kind (CAWT, CAWOT, Guideline, MPC and the trained
DT/MLP/LSTM) is then replayed over the campaign with each trace stepped
one cycle at a time through ``observe`` (a one-column state resumed every
cycle) and through the batched lock-step replay at workers {1, 2},
asserting element-wise identical alert streams — the width-invariance
and resume contracts of ``repro.simulation.replay``.  The same
campaign is then pushed through one online :class:`MonitorService`
holding every kind as a live tick stream (``repro.serve.replay_log``)
twice, and both served runs must reproduce the batched offline replay
element-wise — the serving parity contract.  A crash-recovery
smoke then kills a journaled service (``persist_dir``; CAWT, CAWOT,
Guideline, MPC and LSTM over 100 synthetic users) at two mid-run
tick boundaries and recovers it from snapshot + write-ahead journal
(``repro.serve.chaos``): the stitched alert stream must be element-wise
identical to the uninterrupted run — the crash-safety parity contract of
``repro.serve.persist``.  Then the *mitigated*
closed loop (the CAWOT and the MPC monitor, each wired to the fixed
Algorithm 1 strategy, Table VII's configurations) runs serially and on
the worker pool, and both must agree element-wise — the live lock-step
monitor/mitigator path of ``repro.simulation.vector``; the first
patient's MPC runs must also be identical when each runs alone in a
lock-step batch of one (``LOCKSTEP_WIDTH = 1``), and the smoke prints the
live MPC ticks' cost per column-cycle.  A tiny
cross-entropy scenario-search budget (``repro.search``) must find at
least one hazard on the ``ci`` preset and return a seed-deterministic
``SearchResult`` across worker counts.

Run:  python scripts/ci_smoke_parallel.py [workers]
"""

import dataclasses
import os
import sys
import tempfile
import time

import numpy as np

import repro.parallel
from repro.baselines import GuidelineMonitor, MPCMonitor
from repro.core import (FixedMitigator, cawot_monitor, cawt_monitor,
                        learn_thresholds)
from repro.experiments import ExperimentConfig
from repro.experiments.data import ml_baseline_jobs
from repro.fi import CampaignConfig, generate_campaign
from repro.ml import monitor_state, run_training_jobs
from repro.search import CrossEntropySearch
from repro.serve import MonitorService, replay_log
from repro.serve.chaos import (crash_recovery_run, drive, fleet_ticks,
                               results_equal)
from repro.simulation import (CampaignStoreWriter, TraceDataset,
                              iter_contexts, plan_campaign, plan_fingerprint,
                              replay_campaign, run_campaign, trace_to_arrays)


def stepped_alerts(monitor, trace) -> np.ndarray:
    """*trace*'s alert flags, fed one context at a time to ``observe``."""
    monitor.reset()
    return np.array([monitor.observe(ctx).alert
                     for ctx in iter_contexts(trace)])


def traces_identical(a, b) -> bool:
    if (a.platform, a.patient_id, a.label, a.dt, a.fault) != \
       (b.platform, b.patient_id, b.label, b.dt, b.fault):
        return False
    # np.array_equal plus raw bytes: array_equal alone lets -0.0 pass
    # for +0.0
    for f in dataclasses.fields(a):
        value, other = getattr(a, f.name), getattr(b, f.name)
        if isinstance(value, np.ndarray) and not (
                np.array_equal(value, other)
                and isinstance(other, np.ndarray)
                and value.dtype == other.dtype
                and value.shape == other.shape
                and value.tobytes() == other.tobytes()):
            return False
    return True


def arrays_identical(a, b) -> bool:
    """Same names, and each array the same dtype, shape and bytes."""
    return a.keys() == b.keys() and all(
        a[name].dtype == b[name].dtype and a[name].shape == b[name].shape
        and a[name].tobytes() == b[name].tobytes() for name in a)


def main() -> int:
    workers = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    config = ExperimentConfig.preset("ci")
    scenarios = generate_campaign(CampaignConfig(stride=config.stride))
    n_expected = len(config.patients) * len(scenarios)
    print(f"ci grid: {len(config.patients)} patients x "
          f"{len(scenarios)} scenarios = {n_expected} simulations")

    start = time.perf_counter()
    serial = run_campaign(config.platform, config.patients, scenarios,
                          n_steps=config.n_steps)
    t_serial = time.perf_counter() - start
    print(f"serial: {t_serial:.2f}s ({n_expected / t_serial:.1f} traces/sec)")

    start = time.perf_counter()
    parallel = run_campaign(config.platform, config.patients, scenarios,
                            n_steps=config.n_steps, workers=workers)
    t_parallel = time.perf_counter() - start
    print(f"{workers} workers: {t_parallel:.2f}s "
          f"({n_expected / t_parallel:.1f} traces/sec, "
          f"{t_serial / t_parallel:.2f}x)")

    if len(serial) != n_expected or len(parallel) != n_expected:
        print(f"FAIL: expected {n_expected} traces, got "
              f"{len(serial)} serial / {len(parallel)} parallel")
        return 1
    mismatches = [i for i, (s, p) in enumerate(zip(serial, parallel))
                  if not traces_identical(s, p)]
    if mismatches:
        print(f"FAIL: {len(mismatches)} trace(s) differ between serial and "
              f"parallel execution; first at index {mismatches[0]} "
              f"({serial[mismatches[0]].label})")
        return 1
    print(f"OK: all {n_expected} traces element-wise identical")

    # dataset-store roundtrip: write -> manifest -> lazy reopen -> compare
    plan = plan_campaign(config.platform, config.patients, scenarios,
                         n_steps=config.n_steps)
    with tempfile.TemporaryDirectory() as root:
        start = time.perf_counter()
        with CampaignStoreWriter(root, config.platform, config.n_steps,
                                 folds=config.folds) as sink:
            for trace in serial:
                sink.write(trace)
        t_write = time.perf_counter() - start
        dataset = TraceDataset.open(root, cache_size=8)
        if dataset.fingerprint != plan_fingerprint(plan):
            print("FAIL: stored fingerprint does not match the campaign plan")
            return 1
        start = time.perf_counter()
        bad = [i for i, (s, d) in enumerate(zip(serial, dataset))
               if not traces_identical(s, d)]
        t_read = time.perf_counter() - start
        if len(dataset) != n_expected or bad:
            print(f"FAIL: store roundtrip mismatch "
                  f"({len(bad)} trace(s), {len(dataset)} stored)")
            return 1
        if dataset.stats.max_resident > 8:
            print(f"FAIL: lazy reader held {dataset.stats.max_resident} "
                  "traces, expected <= its cache window of 8")
            return 1
        print(f"store: write {t_write:.2f}s, lazy reread {t_read:.2f}s, "
              f"max {dataset.stats.max_resident} traces resident — "
              f"all {n_expected} roundtripped identically")
        # np.load must read every shard into what the store's reader
        # returned: the shards stay plain npz
        start = time.perf_counter()
        stored = [trace_to_arrays(trace) for trace in TraceDataset.open(root)]
        t_store = time.perf_counter() - start
        start = time.perf_counter()
        loaded = []
        for i in range(len(dataset)):
            with np.load(os.path.join(root, dataset.entry(i)["file"])) as npz:
                loaded.append({name: npz[name] for name in npz.files})
        t_np_load = time.perf_counter() - start
        bad = [i for i, (s, n) in enumerate(zip(stored, loaded))
               if not arrays_identical(s, n)]
        if bad:
            print(f"FAIL: np.load reads {len(bad)} shard(s) differently "
                  f"from the store's reader; first at index {bad[0]}")
            return 1
        print(f"store: decode per shard {1e3 * t_store / n_expected:.2f} ms "
              f"(store reader), {1e3 * t_np_load / n_expected:.2f} ms "
              f"(np.load) — all {n_expected} shards read alike")

    # training parity: the TrainingJob fan-out must produce element-wise
    # identical monitors (every weight, every split) at any worker count
    jobs = ml_baseline_jobs(config)
    start = time.perf_counter()
    trained_serial = run_training_jobs(jobs, serial)
    t_train_serial = time.perf_counter() - start
    start = time.perf_counter()
    trained_parallel = run_training_jobs(jobs, serial, workers=workers)
    t_train_parallel = time.perf_counter() - start
    print(f"training: {len(jobs)} jobs, serial {t_train_serial:.2f}s, "
          f"{workers} workers {t_train_parallel:.2f}s")
    for a, b in zip(trained_serial, trained_parallel):
        if a.job != b.job or a.n_samples != b.n_samples:
            print(f"FAIL: job order/metadata diverged for {a.name}")
            return 1
        state_a, state_b = monitor_state(a.monitor), monitor_state(b.monitor)
        if len(state_a) != len(state_b) or any(
                not np.array_equal(x, y) for x, y in zip(state_a, state_b)):
            print(f"FAIL: {a.name} monitor trained with {workers} workers "
                  "differs from the serial fit")
            return 1
    print(f"OK: all {len(jobs)} training jobs "
          f"({', '.join(t.name for t in trained_serial)}) element-wise "
          "identical at any worker count")

    # batched replay parity: every monitor kind, each trace stepped one
    # cycle at a time vs the lock-step replay, across worker counts (one
    # lock-step chunk of traces keeps the per-cycle reference bounded)
    monitors = {
        "CAWT": cawt_monitor(learn_thresholds(serial).thresholds),
        "CAWOT": cawot_monitor(),
        "Guideline": GuidelineMonitor(),
        "MPC": MPCMonitor(horizon_steps=config.mpc_horizon),
    }
    monitors.update({t.name: t.monitor for t in trained_serial})
    start = time.perf_counter()
    ref = {name: [stepped_alerts(monitor, trace)
                  for trace in serial[:repro.parallel.LOCKSTEP_WIDTH]]
           for name, monitor in monitors.items()}
    t_reference = time.perf_counter() - start
    start = time.perf_counter()
    offline = {}
    for replay_workers in (1, workers):
        for name, monitor in monitors.items():
            batched = replay_campaign({name: monitor}, serial,
                                      workers=replay_workers)[name]
            # the stepped reference where there is one, else the first
            # sweep
            expected = (ref[name] + offline.setdefault(name, batched)[
                len(ref[name]):])
            bad = [i for i, (a, b) in enumerate(zip(expected, batched))
                   if not np.array_equal(a, b)]
            if len(batched) != len(serial) or bad:
                print(f"FAIL: batched replay of {name} diverges from the "
                      f"reference at workers={replay_workers} "
                      f"({len(bad)} trace(s), first at "
                      f"{bad[0] if bad else '?'})")
                return 1
    t_batched = time.perf_counter() - start
    print(f"OK: batched replay of {len(monitors)} monitor kinds "
          f"({', '.join(monitors)}) element-wise identical to each "
          f"trace stepped through observe at workers 1/{workers} "
          f"(reference {t_reference:.2f}s, 2 batched sweeps "
          f"{t_batched:.2f}s)")

    # serving parity: replay the recorded campaign through one online
    # MonitorService holding every monitor kind as a live tick stream,
    # twice, and compare against the batched offline replay just checked
    # against the stepped reference
    start = time.perf_counter()
    for service_run in (1, 2):
        served = replay_log(monitors, serial)
        for name in monitors:
            bad = [i for i, (a, b) in enumerate(zip(offline[name],
                                                    served[name]))
                   if not np.array_equal(a, b)]
            if len(served[name]) != len(serial) or bad:
                print(f"FAIL: served alert stream of {name} diverges "
                      f"from the offline replay (service run "
                      f"{service_run}, {len(bad)} trace(s), first at "
                      f"{bad[0] if bad else '?'})")
                return 1
    t_serve = time.perf_counter() - start
    print(f"OK: online service reproduces the offline replay of "
          f"{len(monitors)} monitor kinds element-wise "
          f"(2 service runs, {t_serve:.2f}s)")

    # crash-recovery smoke: kill a journaled service at mid-run tick
    # boundaries, recover from snapshot + write-ahead journal, and the
    # stitched stream must match the uninterrupted run element-wise
    chaos_monitors = {name: monitors[name] for name in
                      ("CAWT", "CAWOT", "Guideline", "MPC", "LSTM")}
    chaos_ticks = fleet_ticks(100, 8, seed=3)
    start = time.perf_counter()
    uninterrupted = drive(MonitorService(chaos_monitors), chaos_ticks)
    with tempfile.TemporaryDirectory() as root:
        for kill_after in (3, 6):
            stitched, recovered = crash_recovery_run(
                chaos_monitors, chaos_ticks,
                os.path.join(root, f"kill{kill_after}"),
                kill_after=kill_after, snapshot_every=3)
            equal, why = results_equal(uninterrupted, stitched)
            if not equal or recovered.recovery_report is None:
                print(f"FAIL: recovery after a kill at tick {kill_after} "
                      f"is not bit-exact: {why}")
                return 1
    t_chaos = time.perf_counter() - start
    print(f"OK: journaled service killed at tick boundaries 3/6 recovers "
          f"to an element-wise identical stream "
          f"(100 users x 8 ticks, {t_chaos:.2f}s)")

    # mitigated parity: the live Table VII closed loop (monitor +
    # mitigator inside the lock-step engine), serial vs the worker pool,
    # for CAWOT and for MPC, whose live ticks run the Python-float kernel;
    # the serial MPC run times those ticks, and the first patient's MPC
    # runs must also be identical at LOCKSTEP_WIDTH 1
    class TimedMPC(MPCMonitor):
        """MPCMonitor summing its live ticks' seconds and column-cycles."""
        spent = [0.0, 0]

        def observe_batch(self, batch, state=None):
            start = time.perf_counter()
            verdicts = super().observe_batch(batch, state=state)
            TimedMPC.spent[0] += time.perf_counter() - start
            TimedMPC.spent[1] += batch.shape[0] * batch.shape[1]
            return verdicts

    mitigated_monitors = {
        "CAWOT": (lambda pid: cawot_monitor(), lambda pid: cawot_monitor()),
        "MPC": (lambda pid: TimedMPC(horizon_steps=config.mpc_horizon),
                lambda pid: MPCMonitor(horizon_steps=config.mpc_horizon)),
    }
    mitigated = {}
    for name, (serial_factory, factory) in mitigated_monitors.items():
        start = time.perf_counter()
        mitigated[name] = mitigated_ref = run_campaign(
            config.platform, config.patients, scenarios,
            monitor_factory=serial_factory, mitigator=FixedMitigator(),
            n_steps=config.n_steps)
        t_mit_serial = time.perf_counter() - start
        n_fired = sum(bool(trace.mitigated.any()) for trace in mitigated_ref)
        if n_fired == 0:
            print(f"FAIL: mitigated {name} reference campaign never fired "
                  "the mitigator — the parity check would be vacuous")
            return 1
        start = time.perf_counter()
        combo = run_campaign(config.platform, config.patients, scenarios,
                             monitor_factory=factory,
                             mitigator=FixedMitigator(),
                             n_steps=config.n_steps, workers=workers)
        t_mit_parallel = time.perf_counter() - start
        bad = [i for i, (s, v) in enumerate(zip(mitigated_ref, combo))
               if not traces_identical(s, v)]
        if len(combo) != n_expected or bad:
            print(f"FAIL: mitigated {name} campaign diverges from serial at "
                  f"workers={workers} ({len(bad)} trace(s), first at "
                  f"{bad[0] if bad else '?'})")
            return 1
        print(f"OK: mitigated closed loop ({name} + FixedMitigator, "
              f"{n_fired}/{n_expected} traces corrected) element-wise "
              f"identical at workers 1/{workers} "
              f"(serial {t_mit_serial:.2f}s, {workers} workers "
              f"{t_mit_parallel:.2f}s)")
    seconds, column_cycles = TimedMPC.spent
    first = config.patients[0]
    width = repro.parallel.LOCKSTEP_WIDTH
    repro.parallel.LOCKSTEP_WIDTH = 1
    try:
        alone = run_campaign(
            config.platform, [first], scenarios,
            monitor_factory=lambda pid: MPCMonitor(
                horizon_steps=config.mpc_horizon),
            mitigator=FixedMitigator(), n_steps=config.n_steps)
    finally:
        repro.parallel.LOCKSTEP_WIDTH = width
    for scenario, single, trace in zip(scenarios, alone, mitigated["MPC"]):
        if not traces_identical(single, trace):
            print(f"FAIL: mitigated MPC run {scenario.label} of patient "
                  f"{first} differs at LOCKSTEP_WIDTH 1 from width {width}")
            return 1
    print(f"OK: {len(alone)} mitigated MPC runs of patient {first} "
          f"identical at LOCKSTEP_WIDTH 1 and {width}; live MPC ticks cost "
          f"{seconds / column_cycles * 1e6:.1f} us per column-cycle "
          f"({column_cycles} column-cycles, serial)")

    # scenario-search smoke: a tiny cross-entropy budget must still find a
    # hazard on the ci preset, and the SearchResult must be seed-
    # deterministic across worker counts (the repro.search contract)
    def run_search(search_workers):
        return CrossEntropySearch(
            platform=config.platform, patient_id=config.patients[0],
            n_steps=config.n_steps, population=16, iterations=2,
            workers=search_workers).run(seed=0)

    start = time.perf_counter()
    search_ref = run_search(1)
    t_search = time.perf_counter() - start
    if search_ref.n_hazardous < 1:
        print(f"FAIL: scenario search found no hazard in "
              f"{search_ref.n_simulations} simulations "
              f"({search_ref.summary()})")
        return 1
    other = run_search(workers)
    findings_match = (
        [f.label for f in other.findings]
        == [f.label for f in search_ref.findings]
        and [s.elite_indices for s in other.iterations]
        == [s.elite_indices for s in search_ref.iterations])
    if not findings_match or other.n_simulations != search_ref.n_simulations:
        print(f"FAIL: scenario search diverges from the serial run at "
              f"workers={workers}")
        return 1
    print(f"OK: scenario search ({search_ref.summary()}) seed-deterministic "
          f"at workers 1/{workers} (serial {t_search:.2f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
