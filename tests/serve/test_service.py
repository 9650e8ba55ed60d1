"""MonitorService: offline parity, fleet membership, context windows."""

import pickle

import numpy as np
import pytest

from repro.baselines import GuidelineMonitor
from repro.core import cawot_monitor, cawt_monitor
from repro.serve import (MonitorService, MonitorRegistry, TickBatch,
                         replay_log)
from repro.serve.chaos import fleet_ticks
from repro.serve.persist import read_snapshot
from repro.simulation import (ContextBatch, iter_trace_ticks,
                              replay_campaign)


def _monitors():
    return {"CAWT": cawt_monitor({"beta1": 75.0}),
            "CAWOT": cawot_monitor(),
            "Guideline": GuidelineMonitor()}


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
        import dataclasses
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
        service = MonitorService(_monitors())
        result = service.process(_tick(0.0, ("a", "a", "b"),
                                       [120.0, 125.0, 130.0]))
        assert [r.reason for r in result.rejected] == ["duplicate-user"]
        assert result.rejected[0].user_id == "a"
        assert service.n_users == 2
        assert service.health == "DEGRADED"
        # only the first occurrence advanced user a's state
        assert service.context_window("a").bg[0, 0] == 120.0
        for flags in result.alerts.values():
            assert flags.shape == (3,)

    def test_disconnect_frees_and_recycles_slots(self):
        service = MonitorService(_monitors())
        service.process(_tick(0.0, ("a", "b"), [120.0, 130.0]))
        service.disconnect("a")
        assert service.n_users == 1
        with pytest.raises(KeyError):
            service.disconnect("a")
        # the recycled slot must not leak the old user's history
        service.process(_tick(5.0, ("c",), [200.0]))
        window = service.context_window("c")
        assert window.shape == (1, 1)
        assert window.bg[0, 0] == 200.0
        assert window.bg_rate[0, 0] == 0.0  # fresh user: no rate yet

    def test_midstream_join_gets_zero_first_rate(self):
        service = MonitorService(_monitors())
        service.process(_tick(0.0, ("a",), [120.0]))
        result = service.process(_tick(5.0, ("a", "b"), [130.0, 180.0]))
        window_a = service.context_window("a")
        window_b = service.context_window("b")
        assert window_a.bg_rate[1, 0] == (130.0 - 120.0) / 5.0
        assert window_b.bg_rate[0, 0] == 0.0
        assert result.user_ids == ("a", "b")

    def test_skipped_tick_rate_spans_the_gap(self):
        service = MonitorService(_monitors())
        service.process(_tick(0.0, ("a", "b"), [120.0, 120.0]))
        service.process(_tick(5.0, ("a",), [125.0]))
        service.process(_tick(10.0, ("a", "b"), [125.0, 150.0]))
        window_b = service.context_window("b")
        # b missed the middle tick: its rate is computed from its own
        # previous sample, not the fleet's
        assert window_b.bg_rate[1, 0] == (150.0 - 120.0) / 5.0


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
        """Per user the service holds only the monitors' state columns:
        at most 2 KB for every kind (an LSTM at k = 6 keeps its last
        five feature rows), never a model copy."""
        n_users = 100
        service = MonitorService(all_monitor_kinds, fsync=False,
                                 persist_dir=str(tmp_path / "state"))
        for tick in fleet_ticks(n_users, 3, seed=0):
            service.process(tick)
        saved = read_snapshot(service.snapshot())["monitor_state"]
        service.close()
        for name in all_monitor_kinds:
            per_user = len(pickle.dumps(
                saved[name], protocol=pickle.HIGHEST_PROTOCOL)) / n_users
            assert per_user <= 2048, f"{name}: {per_user:.0f} B per user"

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


class TestContextWindow:
    def test_window_matches_offline_context_matrix(
            self, tiny_campaign_traces):
        """The ring-rebuilt window is the tail of the offline batch."""
        trace = tiny_campaign_traces[0]
        window_ticks = 8
        service = MonitorService(_monitors(), window=window_ticks)
        for tick in iter_trace_ticks([trace]):
            service.process(TickBatch(
                t=tick.t, user_ids=("u",), cgm=tick.cgm, iob=tick.iob,
                iob_rate=tick.iob_rate, rate=tick.rate, bolus=tick.bolus,
                action=tick.action))
        window = service.context_window("u")
        offline = ContextBatch.from_traces([trace])
        assert window.shape == (window_ticks, 1)
        np.testing.assert_array_equal(
            window.features[:, :, 0], offline.features[-window_ticks:, :, 0])
        np.testing.assert_array_equal(
            window.t[:, 0], offline.t[-window_ticks:, 0])
        np.testing.assert_array_equal(
            window.action[:, 0], offline.action[-window_ticks:, 0])

    def test_unknown_user_rejected(self):
        service = MonitorService(_monitors())
        with pytest.raises(KeyError):
            service.context_window("ghost")

    def test_no_ticks_yet_rejected(self):
        service = MonitorService(_monitors())
        service.connect("a")
        with pytest.raises(ValueError, match="no ticks"):
            service.context_window("a")


class TestValidation:
    def test_bad_dt(self):
        with pytest.raises(ValueError, match="dt"):
            MonitorService(_monitors(), dt=0.0)

    def test_bad_window(self):
        with pytest.raises(ValueError, match="window"):
            MonitorService(_monitors(), window=0)

    def test_tick_shape_mismatch(self):
        with pytest.raises(ValueError, match="cgm"):
            TickBatch(t=0.0, user_ids=("a", "b"), cgm=np.zeros(3),
                      iob=np.zeros(2), iob_rate=np.zeros(2),
                      rate=np.zeros(2), bolus=np.zeros(2),
                      action=np.zeros(2))


class TestDegradedMode:
    """Malformed rows quarantine; healthy rows are never held hostage."""

    def test_nan_and_negative_glucose_quarantined(self):
        service = MonitorService(_monitors())
        result = service.process(_tick(0.0, ("a", "b", "c"),
                                       [np.nan, -5.0, 120.0]))
        reasons = {r.user_id: r.reason for r in result.rejected}
        assert reasons == {"a": "bad-glucose", "b": "bad-glucose"}
        assert result.rejected[1].value == -5.0
        # the healthy row processed normally
        assert service.context_window("c").bg[0, 0] == 120.0
        for uid in ("a", "b"):
            with pytest.raises(ValueError, match="no ticks"):
                service.context_window(uid)
        # rejected rows read like silent rows on the parity surface
        for flags in result.alerts.values():
            assert flags.shape == (3,)
            assert not flags[0] and not flags[1]

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
        service = MonitorService(_monitors())
        service.process(_tick(10.0, ("a",), [120.0]))
        replayed = service.process(_tick(10.0, ("a",), [125.0]))
        assert [r.reason for r in replayed.rejected] == ["stale-timestamp"]
        older = service.process(_tick(5.0, ("a",), [125.0]))
        assert [r.reason for r in older.rejected] == ["stale-timestamp"]
        # the redelivered ticks changed nothing
        assert service.context_window("a").bg[-1, 0] == 120.0
        fresh = service.process(_tick(15.0, ("a",), [130.0]))
        assert fresh.rejected == []
        assert service.context_window("a").bg_rate[-1, 0] == 2.0

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
        """Regression: disconnect must scrub ring rows, BG memory and
        alert streams so a reconnecting user starts truly fresh."""
        service = MonitorService(_monitors())
        # build up history + an emitted (now suppressed) alert stream
        for step in range(5):
            service.process(_tick(step * 5.0, ("a",), [40.0]))
        service.disconnect("a")
        # reconnect (recycles the same slot) and tick once, healthy
        result = service.process(_tick(25.0, ("a",), [120.0]))
        window = service.context_window("a")
        assert window.shape == (1, 1)  # no stale ring rows
        assert window.bg_rate[0, 0] == 0.0  # first tick, not a delta
        assert result.rejected == []  # last-tick stamp was scrubbed too
        # the old dedup stream is gone: a fresh alert emits immediately
        alert = service.process(_tick(30.0, ("a",), [40.0]))
        assert alert.alerts["CAWOT"][0]
        assert len(alert.events) >= 1

    def test_recycled_slot_scrubbed_for_new_user(self):
        service = MonitorService(_monitors())
        service.process(_tick(0.0, ("old",), [40.0]))
        service.disconnect("old")
        assert service.alert_manager.n_streams == 0  # drop_user ran
        service.connect("new")  # recycles the slot (clear_slot ran)
        result = service.process(_tick(5.0, ("new",), [120.0]))
        window = service.context_window("new")
        assert window.shape == (1, 1)
        assert window.bg[0, 0] == 120.0
        assert result.rejected == []


class TestContextBatchAppend:
    def test_incremental_append_equals_from_traces(
            self, tiny_campaign_traces):
        traces = tiny_campaign_traces[:3]
        whole = ContextBatch.from_traces(traces)
        ticks = [ContextBatch(t=whole.t[s:s + 1],
                              features=whole.features[s:s + 1],
                              action=whole.action[s:s + 1], dt=whole.dt)
                 for s in range(whole.shape[0])]
        folded = ticks[0]
        for tick in ticks[1:]:
            folded = folded.append(tick)
        np.testing.assert_array_equal(folded.features, whole.features)
        np.testing.assert_array_equal(folded.t, whole.t)
        np.testing.assert_array_equal(folded.action, whole.action)
        np.testing.assert_array_equal(folded.dt, whole.dt)

    def test_append_validates_columns_and_dt(self, tiny_campaign_traces):
        batch = ContextBatch.from_traces(tiny_campaign_traces[:2])
        narrow = batch.take_columns(np.array([0]))
        with pytest.raises(ValueError, match="column count"):
            batch.append(narrow)
        other_dt = ContextBatch(t=batch.t, features=batch.features,
                                action=batch.action, dt=batch.dt * 2.0)
        with pytest.raises(ValueError, match="dt mismatch"):
            batch.append(other_dt)
