"""Online monitor service throughput under synthetic streaming load.

Drives a :class:`~repro.serve.MonitorService` holding the stateless
serving set (CAWT with learned thresholds, CAWOT, a trained DT) with the
deterministic load generator at several fleet sizes, reporting sustained
user-ticks/sec and per-tick latency percentiles.  A final test asserts
the acceptance bar the CI bench gate also enforces: the service sustains
at least 10,000 users per tick on one process, and the replay-from-log
path stays element-wise identical to offline ``replay_campaign``.

A journal-overhead test enforces the crash-safety budget: serving with
the write-ahead tick journal (fsync'd) must stay within 15% of
journal-off throughput — durability is not allowed to eat the serving
headroom.

Run:  pytest benchmarks/bench_serve.py --benchmark-only -s
"""

import numpy as np
import pytest

from repro.core import cawot_monitor, cawt_monitor, learn_thresholds
from repro.experiments import ExperimentConfig
from repro.fi import CampaignConfig, generate_campaign
from repro.ml import TrainingJob, run_training_jobs
from repro.serve import MonitorService, replay_log, run_load
from repro.simulation import replay_campaign, run_campaign

CONFIG = ExperimentConfig.preset("ci")
SCENARIOS = generate_campaign(CampaignConfig(stride=CONFIG.stride))

#: the acceptance bar: one process serves at least this many users/tick
USERS_PER_TICK_FLOOR = 10_000

#: crash safety budget: journal-on throughput loss vs journal-off
JOURNAL_OVERHEAD_CEILING = 0.15

_CACHE = {}


def _traces_and_monitors():
    if not _CACHE:
        traces = run_campaign(CONFIG.platform, CONFIG.patients, SCENARIOS,
                              n_steps=CONFIG.n_steps)
        _CACHE["traces"] = traces
        _CACHE["monitors"] = {
            "CAWT": cawt_monitor(learn_thresholds(traces).thresholds),
            "CAWOT": cawot_monitor(),
            "DT": run_training_jobs([TrainingJob.make("dt")],
                                    traces)[0].monitor,
        }
    return _CACHE["traces"], _CACHE["monitors"]


@pytest.mark.parametrize("n_users", [1_000, 10_000, 50_000])
def test_serve_throughput(benchmark, n_users):
    _, monitors = _traces_and_monitors()
    service = MonitorService(monitors)
    report = benchmark.pedantic(
        run_load, args=(service, n_users, 5), kwargs={"seed": 0},
        rounds=1, iterations=1)
    print(f"\n{report.summary()}")
    assert report.n_ticks == 5


def test_serve_floor_and_parity():
    """The bench gate's bar: >=10k users/tick sustained, and served
    replay element-wise identical to offline replay_campaign."""
    traces, monitors = _traces_and_monitors()
    service = MonitorService(monitors)
    report = run_load(service, n_users=USERS_PER_TICK_FLOOR, n_ticks=5,
                      seed=0)
    print(f"\n{report.summary()}")
    assert report.users_per_sec >= USERS_PER_TICK_FLOOR, (
        f"service sustained {report.users_per_sec:,.0f} user-ticks/s, "
        f"below the {USERS_PER_TICK_FLOOR:,} floor")

    offline = replay_campaign(monitors, traces)
    served = replay_log(monitors, traces)
    for name in monitors:
        for a, b in zip(offline[name], served[name]):
            assert np.array_equal(a, b), name


def test_serve_journal_overhead_ceiling(tmp_path):
    """Write-ahead journaling (fsync'd) costs <= 15% of throughput.

    Same fleet, same seed, journal off vs on; the alert streams must
    also be identical — durability is transparent to the parity surface.
    Single 0.1s-scale runs see ±20% scheduler jitter, so each side is
    measured best-of-two, interleaved.
    """
    _, monitors = _traces_and_monitors()
    n_users, n_ticks = USERS_PER_TICK_FLOOR, 5
    plains, journaleds = [], []
    for attempt in range(2):
        plains.append(run_load(MonitorService(monitors), n_users,
                               n_ticks, seed=0))
        journaled_service = MonitorService(
            monitors, persist_dir=str(tmp_path / f"state{attempt}"),
            fsync=True)
        journaleds.append(run_load(journaled_service, n_users, n_ticks,
                                   seed=0))
        journaled_service.close()
    plain = max(plains, key=lambda r: r.users_per_sec)
    journaled = max(journaleds, key=lambda r: r.users_per_sec)
    loss = 1.0 - journaled.users_per_sec / plain.users_per_sec
    print(f"\njournal off: {plain.summary()}")
    print(f"journal on : {journaled.summary()}  (loss {loss:+.1%})")
    assert loss <= JOURNAL_OVERHEAD_CEILING, (
        f"journaling costs {loss:.1%} of throughput, over the "
        f"{JOURNAL_OVERHEAD_CEILING:.0%} ceiling")
    for a, b in zip(plains + [plain], journaleds + [journaled]):
        assert a.n_raw_alerts == b.n_raw_alerts
        assert a.n_events == b.n_events
