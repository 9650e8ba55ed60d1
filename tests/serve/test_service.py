"""MonitorService: offline parity, fleet membership, what monitors see."""

import dataclasses
import os
import pickle

import numpy as np
import pytest

from repro.baselines import GuidelineMonitor
from repro.core import SafetyMonitor, cawot_monitor, cawt_monitor
from repro.serve import (MonitorService, MonitorRegistry, TickBatch,
                         replay_log)
from repro.serve.chaos import fleet_ticks
from repro.serve.persist import read_snapshot
from repro.simulation import (ContextBatch, iter_trace_ticks,
                              replay_campaign)
from tests.conftest import ramp_ticks


def _monitors():
    return {"CAWT": cawt_monitor({"beta1": 75.0}),
            "CAWOT": cawot_monitor(),
            "Guideline": GuidelineMonitor()}


class _Recorder(SafetyMonitor):
    """Never alerts; keeps every ``(1, B)`` batch the service feeds it, in
    the order of the tick's accepted rows."""

    def __init__(self):
        self.batches = []

    def observe(self, ctx):
        raise AssertionError("the service feeds batches only")

    def init_state(self, n_cols):
        return {}

    def observe_batch(self, batch, state=None):
        self.batches.append(batch)
        n_cols = batch.shape[1]
        return (np.zeros((1, n_cols), dtype=bool),
                np.zeros((1, n_cols), dtype=int))


def _recording_service(monitors=None, **kwargs):
    """A service over *monitors* (default :func:`_monitors`) plus a
    :class:`_Recorder`."""
    recorder = _Recorder()
    monitors = _monitors() if monitors is None else monitors
    return MonitorService({**monitors, "seen": recorder},
                          **kwargs), recorder


def _users(tick, columns):
    """The rows of *tick* at *columns*, as their own tick."""
    columns = list(columns)
    return TickBatch(
        t=tick.t, user_ids=tuple(tick.user_ids[j] for j in columns),
        **{name: np.asarray(getattr(tick, name))[columns]
           for name in ("cgm", "iob", "iob_rate", "rate", "bolus",
                        "action")})


def _assert_same_verdicts(got, want, columns, kinds, alerted):
    """*got*'s verdicts at *columns* are *want*'s, kind by kind; the
    kinds that alerted there are added to *alerted*."""
    for name in kinds:
        np.testing.assert_array_equal(got.alerts[name][columns],
                                      want.alerts[name], name)
        np.testing.assert_array_equal(got.hazards[name][columns],
                                      want.hazards[name], name)
        if want.alerts[name].any():
            alerted.add(name)


def _tick(t, user_ids, bg, **overrides):
    n = len(user_ids)
    fields = dict(cgm=np.asarray(bg, dtype=float), iob=np.full(n, 1.0),
                  iob_rate=np.zeros(n), rate=np.full(n, 1.2),
                  bolus=np.zeros(n), action=np.full(n, 4))
    fields.update(overrides)
    return TickBatch(t=t, user_ids=tuple(user_ids), **fields)


class TestReplayParity:
    """The tentpole contract: served streams == offline replay_campaign."""

    def test_raw_alert_streams_identical_to_offline(
            self, tiny_campaign_traces, all_monitor_kinds):
        traces = tiny_campaign_traces[:12]
        monitors = all_monitor_kinds
        offline = replay_campaign(monitors, traces)
        served = replay_log(monitors, traces)
        assert set(served) == set(offline)
        for name in monitors:
            assert len(served[name]) == len(traces)
            for a, b in zip(offline[name], served[name]):
                np.testing.assert_array_equal(a, b)

    def test_two_service_runs_are_identical(self, tiny_campaign_traces):
        traces = tiny_campaign_traces[:6]
        first = replay_log(_monitors(), traces)
        second = replay_log(_monitors(), traces)
        for name in first:
            for a, b in zip(first[name], second[name]):
                np.testing.assert_array_equal(a, b)

    def test_replay_log_validates_input(self, tiny_campaign_traces):
        with pytest.raises(ValueError, match="zero traces"):
            replay_log(_monitors(), [])

    def test_tick_stream_requires_lockstep(self, tiny_campaign_traces):
        trace = tiny_campaign_traces[0]
        with pytest.raises(ValueError, match="zero traces"):
            list(iter_trace_ticks([]))
        shifted = dataclasses.replace(trace, t=trace.t + 5.0)
        with pytest.raises(ValueError, match="time grid"):
            list(iter_trace_ticks([trace, shifted]))


class TestFleetMembership:
    def test_connect_is_idempotent_and_autoconnect_works(self):
        service = MonitorService(_monitors())
        service.connect("a")
        service.connect("a")
        assert service.n_users == 1
        service.process(_tick(0.0, ("a", "b"), [120.0, 130.0]))
        assert service.n_users == 2

    def test_duplicate_users_in_one_tick_quarantined(self):
        # degraded-mode ingestion: the duplicated row is quarantined (the
        # first occurrence wins), never a mid-tick exception
        service, seen = _recording_service()
        result = service.process(_tick(0.0, ("a", "a", "b"),
                                       [120.0, 125.0, 130.0]))
        assert [r.reason for r in result.rejected] == ["duplicate-user"]
        assert result.rejected[0].user_id == "a"
        assert service.n_users == 2
        assert service.health == "DEGRADED"
        # only the first occurrence reached the monitors
        np.testing.assert_array_equal(seen.batches[-1].bg[0], [120.0, 130.0])
        # ... and became user a's BG memory
        service.process(_tick(5.0, ("a",), [130.0]))
        assert seen.batches[-1].bg_rate[0, 0] == (130.0 - 120.0) / 5.0
        for flags in result.alerts.values():
            assert flags.shape == (3,)

    def test_disconnect_frees_and_recycles_slots(self):
        service, seen = _recording_service()
        service.process(_tick(0.0, ("a", "b"), [120.0, 130.0]))
        service.disconnect("a")
        assert service.n_users == 1
        with pytest.raises(KeyError):
            service.disconnect("a")
        # the recycled slot must not leak the old user's BG memory
        service.process(_tick(5.0, ("c",), [200.0]))
        batch = seen.batches[-1]
        assert batch.shape == (1, 1)
        assert batch.bg[0, 0] == 200.0
        assert batch.bg_rate[0, 0] == 0.0  # fresh user: no rate yet

    def test_slot_capacity_grows_geometrically(self):
        """Connecting users is amortised O(1): every per-slot array
        doubles (from 8 slots) rather than growing a slot at a time."""
        service = MonitorService(_monitors())
        capacities = []
        for i in range(33):
            service.connect(f"u{i}")
            capacities.append(len(service._seen))
        assert capacities == [8] * 8 + [16] * 8 + [32] * 16 + [64]
        for state in service._state.values():
            for column in state.values():
                assert column.shape[-1] == 64

    def test_slot_capacity_never_shrinks(self):
        """Departed users' slots are recycled before the arrays grow, and
        disconnecting never shrinks them."""
        service = MonitorService(_monitors())
        for i in range(20):
            service.connect(f"u{i}")
        assert len(service._seen) == 32
        for i in range(20):
            service.disconnect(f"u{i}")
        assert service.n_users == 0
        assert len(service._seen) == 32
        for i in range(20):
            service.connect(f"v{i}")
        assert len(service._seen) == 32
        assert sorted(service._slots.values()) == list(range(20))

    def test_connected_user_waits_for_its_first_tick(self):
        """A connected user reaches no monitor until it ticks, and its
        first tick carries no rate however long it waited."""
        service, seen = _recording_service()
        service.connect("a")
        service.process(_tick(0.0, ("b",), [130.0]))
        np.testing.assert_array_equal(seen.batches[-1].bg, [[130.0]])
        service.process(_tick(5.0, ("a", "b"), [120.0, 140.0]))
        np.testing.assert_array_equal(seen.batches[-1].bg_rate[0],
                                      [0.0, (140.0 - 130.0) / 5.0])

    def test_first_tick_rate_is_zero(self):
        service, seen = _recording_service()
        service.process(_tick(0.0, ("a", "b"), [120.0, 180.0]))
        np.testing.assert_array_equal(seen.batches[-1].bg_rate[0], [0.0, 0.0])

    def test_midstream_join_gets_zero_first_rate(self):
        service, seen = _recording_service()
        service.process(_tick(0.0, ("a",), [120.0]))
        result = service.process(_tick(5.0, ("a", "b"), [130.0, 180.0]))
        np.testing.assert_array_equal(seen.batches[-1].bg_rate[0],
                                      [(130.0 - 120.0) / 5.0, 0.0])
        assert result.user_ids == ("a", "b")

    def test_skipped_tick_rate_spans_the_gap(self):
        service, seen = _recording_service()
        service.process(_tick(0.0, ("a", "b"), [120.0, 120.0]))
        service.process(_tick(5.0, ("a",), [125.0]))
        service.process(_tick(10.0, ("a", "b"), [125.0, 150.0]))
        # b missed the middle tick: its rate is computed from its own
        # previous sample, not the fleet's
        np.testing.assert_array_equal(seen.batches[-1].bg_rate[0],
                                      [0.0, (150.0 - 120.0) / 5.0])


class TestPerUserState:
    def test_stateful_monitors_do_not_leak_across_users(self):
        """One user's phi3 excursion timer must not fire for another."""
        service = MonitorService({"Guideline": GuidelineMonitor(
            lambda_10=90.0, alpha=10.0)})
        low, ok = 85.0, 120.0
        for step in range(4):
            t = step * 5.0
            result = service.process(
                _tick(t, ("low", "ok"), [low, ok]))
        # after 15+ minutes below lambda_10, phi3 fires for "low" only
        assert result.alerts["Guideline"][0]
        assert not result.alerts["Guideline"][1]

    def test_snapshotted_state_per_user_ceiling(self, all_monitor_kinds,
                                                tmp_path):
        """Per user the service holds a slot, its BG memory, last-tick
        stamp and seen flag, its alert streams and the monitors' state
        columns, never a model copy or a context history.  Each kind's
        columns take at most 2 KB per user (an LSTM at k = 6 keeps its
        last five feature rows), and the whole snapshot grows by at most
        1 KB per user from 128 to 256 users, where the slot capacity
        doubles."""
        def snapshot(n_users):
            service = MonitorService(all_monitor_kinds, fsync=False,
                                     persist_dir=str(tmp_path / str(n_users)))
            for tick in fleet_ticks(n_users, 3, seed=0):
                service.process(tick)
            path = service.snapshot()
            service.close()
            return path

        small, large = snapshot(128), snapshot(256)
        saved = read_snapshot(large)
        assert len(saved["seen"]) == 256
        for name in all_monitor_kinds:
            per_user = len(pickle.dumps(saved["monitor_state"][name],
                                        protocol=pickle.HIGHEST_PROTOCOL)
                           ) / 256
            assert per_user <= 2048, f"{name}: {per_user:.0f} B per user"
        growth = (os.path.getsize(large) - os.path.getsize(small)) / 128
        assert growth <= 1024, f"snapshot grows {growth:.0f} B per user"

    def test_recycled_slot_starts_with_fresh_monitor_state(
            self, all_monitor_kinds):
        """A user recycling a slot sees what a first user would: no
        inherited excursion timer, insulin chain or LSTM window."""
        bgs = [60.0, 140.0, 200.0, 210.0, 220.0, 230.0, 240.0]
        service = MonitorService(all_monitor_kinds)
        for step, bg in enumerate(bgs):
            service.process(_tick(5.0 * step, ("a",), [bg]))
        service.disconnect("a")
        fresh = MonitorService(all_monitor_kinds)
        for step, bg in enumerate(bgs[::-1]):
            t = 5.0 * (len(bgs) + step)
            recycled = service.process(_tick(t, ("b",), [bg]))
            expected = fresh.process(_tick(t, ("b",), [bg]))
            for name in all_monitor_kinds:
                np.testing.assert_array_equal(recycled.alerts[name],
                                              expected.alerts[name], name)
                np.testing.assert_array_equal(recycled.hazards[name],
                                              expected.hazards[name], name)

    def test_growth_keeps_connected_users_state(self, all_monitor_kinds):
        """Growing the slot arrays (8 to 64 here) carries every connected
        user's BG memory and monitor state along: the first eight users
        see the contexts and get the verdicts of a service that never
        grew, and the newcomers those of users served from scratch."""
        ticks = ramp_ticks(40, 14, seed=3)
        grown, grown_seen = _recording_service(all_monitor_kinds)
        first, first_seen = _recording_service(all_monitor_kinds)
        newcomers, newcomers_seen = _recording_service(all_monitor_kinds)
        alerted = set()
        for step, tick in enumerate(ticks):
            if step < 4:
                grown.process(_users(tick, range(8)))
                first.process(_users(tick, range(8)))
                assert len(grown._seen) == 8
                continue
            result = grown.process(tick)
            assert len(grown._seen) == 64
            _assert_same_verdicts(result, first.process(
                _users(tick, range(8))), slice(0, 8), all_monitor_kinds,
                alerted)
            _assert_same_verdicts(result, newcomers.process(
                _users(tick, range(8, 40))), slice(8, 40),
                all_monitor_kinds, alerted)
        assert alerted == set(all_monitor_kinds)
        for step, batch in enumerate(grown_seen.batches):
            np.testing.assert_array_equal(
                batch.features[..., :8], first_seen.batches[step].features)
            if step >= 4:
                np.testing.assert_array_equal(
                    batch.features[..., 8:],
                    newcomers_seen.batches[step - 4].features)

    def test_disconnect_leaves_other_users_untouched(
            self, all_monitor_kinds):
        """Scrubbing a departing user's slot, and recycling it for a new
        user, touches no other slot: b is served as if alone throughout."""
        ticks = ramp_ticks(2, 12, seed=1)
        shared, seen = _recording_service(all_monitor_kinds)
        alone = MonitorService(all_monitor_kinds)
        a, b = ticks[0].user_ids
        alerted = set()
        for step, tick in enumerate(ticks):
            if step == 4:
                shared.disconnect(a)
            if step >= 4:  # a's slot goes to c
                tick = dataclasses.replace(tick, user_ids=("c", b))
            result = shared.process(tick)
            _assert_same_verdicts(result, alone.process(_users(tick, [1])),
                                  slice(1, 2), all_monitor_kinds, alerted)
        assert alerted == set(all_monitor_kinds)
        assert shared._slots == {"c": 0, b: 1}
        rates = [batch.bg_rate[0, 1] for batch in seen.batches]
        cgm = [tick.cgm[1] for tick in ticks]
        assert rates[0] == 0.0
        np.testing.assert_array_equal(rates[1:], np.diff(cgm) / 5.0)

    def test_registry_monitors_stay_unmutated(self):
        registry = MonitorRegistry({"Guideline": GuidelineMonitor()})
        service = MonitorService(registry)
        service.process(_tick(0.0, ("a",), [40.0]))  # deep hypo alert
        assert registry["Guideline"]._below_since is None

    def test_events_ride_on_results(self):
        service = MonitorService({"CAWOT": cawot_monitor()},
                                 dedup_window=120.0)
        result = service.process(_tick(0.0, ("a",), [40.0]))
        assert result.alerts["CAWOT"][0]
        assert len(result.events) == 1
        # the repeat inside the window is deduped
        repeat = service.process(_tick(5.0, ("a",), [40.0]))
        assert repeat.alerts["CAWOT"][0]
        assert repeat.events == []


class TestWhatMonitorsSee:
    def test_every_tick_matches_offline_context_matrix(
            self, tiny_campaign_traces):
        """Every served tick is its row of the offline batch, float for
        float: time stamp, features, action code and period."""
        traces = tiny_campaign_traces[:3]
        service, seen = _recording_service()
        user_ids = ("u0", "u1", "u2")
        for tick in iter_trace_ticks(traces):
            service.process(TickBatch(
                t=tick.t, user_ids=user_ids, cgm=tick.cgm, iob=tick.iob,
                iob_rate=tick.iob_rate, rate=tick.rate, bolus=tick.bolus,
                action=tick.action))
        offline = ContextBatch.from_traces(traces)
        assert len(seen.batches) == offline.shape[0]
        for step, batch in enumerate(seen.batches):
            assert batch.shape == (1, 3)
            np.testing.assert_array_equal(batch.features[0],
                                          offline.features[step])
            np.testing.assert_array_equal(batch.t[0], offline.t[step])
            np.testing.assert_array_equal(batch.action[0],
                                          offline.action[step])
            np.testing.assert_array_equal(batch.dt, offline.dt)


    def test_fleet_tick_matches_users_served_alone(self, all_monitor_kinds):
        """One vectorised tick over a fleet gives every user exactly what
        serving it alone gives: the same context rows and verdicts."""
        ticks = ramp_ticks(5, 12, seed=2)
        fleet, seen = _recording_service(all_monitor_kinds)
        alone = [_recording_service(all_monitor_kinds) for _ in range(5)]
        alerted = set()
        for tick in ticks:
            result = fleet.process(tick)
            for j, (service, _) in enumerate(alone):
                _assert_same_verdicts(result, service.process(
                    _users(tick, [j])), slice(j, j + 1), all_monitor_kinds,
                    alerted)
        assert alerted == set(all_monitor_kinds)
        for j, (_, alone_seen) in enumerate(alone):
            assert len(alone_seen.batches) == len(seen.batches)
            for batch, own in zip(seen.batches, alone_seen.batches):
                np.testing.assert_array_equal(batch.features[..., j],
                                              own.features[..., 0])
                np.testing.assert_array_equal(batch.t[..., j], own.t[..., 0])
                np.testing.assert_array_equal(batch.action[..., j],
                                              own.action[..., 0])


class TestValidation:
    def test_bad_dt(self):
        with pytest.raises(ValueError, match="dt"):
            MonitorService(_monitors(), dt=0.0)

    def test_tick_shape_mismatch(self):
        with pytest.raises(ValueError, match="cgm"):
            TickBatch(t=0.0, user_ids=("a", "b"), cgm=np.zeros(3),
                      iob=np.zeros(2), iob_rate=np.zeros(2),
                      rate=np.zeros(2), bolus=np.zeros(2),
                      action=np.zeros(2))


class TestDegradedMode:
    """Malformed rows quarantine; healthy rows are never held hostage."""

    def test_nan_and_negative_glucose_quarantined(self):
        service, seen = _recording_service()
        result = service.process(_tick(0.0, ("a", "b", "c"),
                                       [np.nan, -5.0, 120.0]))
        reasons = {r.user_id: r.reason for r in result.rejected}
        assert reasons == {"a": "bad-glucose", "b": "bad-glucose"}
        assert result.rejected[1].value == -5.0
        # only the healthy row reached the monitors
        np.testing.assert_array_equal(seen.batches[-1].bg, [[120.0]])
        # rejected rows read like silent rows on the parity surface
        for flags in result.alerts.values():
            assert flags.shape == (3,)
            assert not flags[0] and not flags[1]
        # and left no BG memory: their first accepted tick has no rate
        service.process(_tick(5.0, ("a", "b", "c"), [100.0, 110.0, 125.0]))
        np.testing.assert_array_equal(seen.batches[-1].bg_rate[0],
                                      [0.0, 0.0, (125.0 - 120.0) / 5.0])

    def test_non_finite_channel_quarantined(self):
        service = MonitorService(_monitors())
        iob = np.array([np.inf, 1.0])
        result = service.process(_tick(0.0, ("a", "b"), [120.0, 40.0],
                                       iob=iob))
        assert [r.reason for r in result.rejected] == ["bad-channel"]
        # the deep-hypo healthy row still alerts on the same tick
        assert result.alerts["CAWOT"][1]

    def test_non_finite_timestamp_rejects_whole_tick(self):
        service = MonitorService(_monitors())
        result = service.process(_tick(float("nan"), ("a", "b"),
                                       [120.0, 130.0]))
        assert [r.reason for r in result.rejected] == ["bad-time"] * 2
        assert service.health == "DEGRADED"
        assert set(result.alerts) == set(_monitors())
        for flags in result.alerts.values():
            assert not flags.any()

    def test_unknown_user_quarantined_without_autoconnect(self):
        service = MonitorService(_monitors(), auto_connect=False)
        service.connect("a")
        result = service.process(_tick(0.0, ("a", "ghost"), [120.0, 130.0]))
        assert [r.reason for r in result.rejected] == ["unknown-user"]
        assert result.rejected[0].user_id == "ghost"
        assert service.n_users == 1

    def test_stale_timestamp_quarantined(self):
        service, seen = _recording_service()
        service.process(_tick(10.0, ("a",), [120.0]))
        replayed = service.process(_tick(10.0, ("a",), [125.0]))
        assert [r.reason for r in replayed.rejected] == ["stale-timestamp"]
        older = service.process(_tick(5.0, ("a",), [125.0]))
        assert [r.reason for r in older.rejected] == ["stale-timestamp"]
        # the redelivered ticks reached no monitor and changed nothing
        assert len(seen.batches) == 1
        fresh = service.process(_tick(15.0, ("a",), [130.0]))
        assert fresh.rejected == []
        assert seen.batches[-1].bg_rate[0, 0] == (130.0 - 120.0) / 5.0

    def test_health_recovers_after_quiet_window(self):
        service = MonitorService(_monitors(), health_window=3)
        assert service.health == "OK"
        service.process(_tick(0.0, ("a",), [np.nan]))
        assert service.health == "DEGRADED"
        for step in range(1, 3):
            service.process(_tick(step * 5.0, ("a",), [120.0]))
            assert service.health == "DEGRADED"
        service.process(_tick(15.0, ("a",), [120.0]))
        assert service.health == "OK"
        assert service.rejected_total == 1
        assert service.rejected_by_reason == {"bad-glucose": 1}

    def test_dead_letter_log_is_bounded(self):
        service = MonitorService(_monitors(), dead_letter_capacity=4)
        for step in range(10):
            service.process(_tick(step * 5.0, ("a", "b"),
                                  [np.nan, 120.0]))
        assert len(service.dead_letters) == 4
        assert service.rejected_total == 10
        assert all(r.reason == "bad-glucose" for r in service.dead_letters)

    def test_mixed_tick_keeps_healthy_verdicts_identical(self):
        """Quarantine must not perturb healthy rows' verdicts."""
        clean = MonitorService(_monitors())
        degraded = MonitorService(_monitors())
        for step in range(4):
            t = step * 5.0
            bgs = [40.0 + step, 200.0 - step]
            reference = clean.process(_tick(t, ("x", "y"), bgs))
            result = degraded.process(
                _tick(t, ("x", "y", "junk"), bgs + [np.nan]))
            for name in reference.alerts:
                np.testing.assert_array_equal(
                    reference.alerts[name], result.alerts[name][:2])
                np.testing.assert_array_equal(
                    reference.hazards[name], result.hazards[name][:2])


class TestReconnectScrub:
    def test_reconnecting_user_inherits_nothing(self):
        """Regression: disconnect must scrub BG memory, last-tick stamp
        and alert streams so a reconnecting user starts truly fresh."""
        service, seen = _recording_service()
        # build up history + an emitted (now suppressed) alert stream
        for step in range(5):
            service.process(_tick(step * 5.0, ("a",), [40.0]))
        service.disconnect("a")
        # reconnect (recycles the same slot) and tick once, healthy
        result = service.process(_tick(25.0, ("a",), [120.0]))
        assert seen.batches[-1].bg_rate[0, 0] == 0.0  # first tick, no delta
        assert result.rejected == []  # last-tick stamp was scrubbed too
        # the old dedup stream is gone: a fresh alert emits immediately
        alert = service.process(_tick(30.0, ("a",), [40.0]))
        assert alert.alerts["CAWOT"][0]
        assert len(alert.events) >= 1

    def test_recycled_slot_scrubbed_for_new_user(self):
        service, seen = _recording_service()
        service.process(_tick(0.0, ("old",), [40.0]))
        service.disconnect("old")
        assert service.alert_manager.n_streams == 0  # drop_user ran
        service.connect("new")  # recycles the slot
        result = service.process(_tick(5.0, ("new",), [120.0]))
        batch = seen.batches[-1]
        assert batch.bg[0, 0] == 120.0
        assert batch.bg_rate[0, 0] == 0.0
        assert result.rejected == []

