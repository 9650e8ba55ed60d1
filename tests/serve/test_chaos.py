"""Fault injection: every crash point recovers bit-exact or fails loud."""

import dataclasses

import numpy as np
import pytest

from repro.baselines import GuidelineMonitor, MPCMonitor
from repro.core import cawot_monitor, cawt_monitor
from repro.ml import build_window_dataset
from repro.ml.monitors import LSTMMonitor
from repro.ml.nn import LSTMClassifier
from repro.serve import (JournalCorruptError, MonitorService,
                         SnapshotError)
from repro.serve.chaos import (corrupt_journal_middle, corrupt_snapshot,
                               crash_recovery_run, drive, fleet_ticks,
                               half_written_snapshot, results_equal,
                               skewed_ticks, tear_journal_tail)

N_USERS = 200
N_TICKS = 12


@pytest.fixture(scope="module")
def lstm(tiny_campaign_traces):
    """A small LSTM that alerts on this fleet.  The fleet's BG walks stay
    in the normal range, where campaign-trained monitors are silent, so
    it learns to flag windows ending above 130 mg/dL.  The small stack
    keeps 200 per-user clones cheap; recovery must restore each user's
    k-window."""
    X, _ = build_window_dataset(tiny_campaign_traces, k=6)
    y = (X[:, -1, 0] > 130.0).astype(int)
    model = LSTMClassifier(hidden=(16, 8), lr=1e-2, max_epochs=10,
                           seed=0).fit(X, y)
    return LSTMMonitor(model, k=6)


@pytest.fixture(scope="module")
def fleet(lstm):
    """``fleet()`` builds the fleet's monitors: vectorized stateless ones
    plus two stateful kinds (per-user clones with a cross-cycle
    excursion timer, and with a k-cycle window) -- both restore paths."""
    def monitors():
        return {"CAWT": cawt_monitor({"beta1": 75.0}),
                "CAWOT": cawot_monitor(),
                "Guideline": GuidelineMonitor(),
                "LSTM": lstm}
    return monitors


@pytest.fixture(scope="module")
def ticks():
    return fleet_ticks(N_USERS, N_TICKS, seed=11)


@pytest.fixture(scope="module")
def reference(ticks, fleet):
    results = drive(MonitorService(fleet()), ticks)
    # the LSTM must have something to get wrong after a restore
    assert any(result.alerts["LSTM"].any() for result in results)
    return results


class TestKillAtEveryTickBoundary:
    """The acceptance criterion: a seeded 200-user load killed at EVERY
    tick boundary recovers to an element-wise identical stream."""

    @pytest.mark.parametrize("kill_after", list(range(1, N_TICKS)))
    def test_recovery_parity(self, fleet, tmp_path, ticks, reference,
                             kill_after):
        results, recovered = crash_recovery_run(
            fleet(), ticks, str(tmp_path / "state"),
            kill_after=kill_after, snapshot_every=4)
        equal, why = results_equal(reference, results)
        assert equal, f"kill after tick {kill_after}: {why}"
        assert recovered.recovery_report is not None
        assert recovered.recovery_report.torn_tail_bytes == 0

    def test_membership_churn_replays(self, fleet, tmp_path, ticks,
                                      reference):
        """Explicit connects and a mid-run disconnect ride the journal."""
        results, recovered = crash_recovery_run(
            fleet(), ticks, str(tmp_path / "state"), kill_after=7,
            connect_first=("spectator-1", "spectator-2"),
            disconnect_at=(3, "spectator-1"))
        # spectators never tick, so the ticking fleet's stream is
        # untouched by the membership churn
        equal, why = results_equal(reference, results)
        assert equal, why
        assert recovered.n_users == N_USERS + 1  # spectator-2 survived

    def test_stateful_mpc_clone_state_survives(self, tmp_path):
        """MPC's per-user clones (expensive model state) restore too."""
        monitors = {"MPC": MPCMonitor(), "CAWOT": cawot_monitor()}
        small = fleet_ticks(10, 8, seed=5)
        reference = drive(MonitorService(monitors), small)
        results, _ = crash_recovery_run(
            monitors, small, str(tmp_path / "state"), kill_after=5)
        equal, why = results_equal(reference, results)
        assert equal, why

    def test_second_generation_crash(self, fleet, tmp_path, ticks,
                                     reference):
        """Crash, recover, snapshot, crash again: recovery composes."""
        directory = str(tmp_path / "state")
        service = MonitorService(fleet(), persist_dir=directory)
        results = [service.process(tick) for tick in ticks[:4]]
        del service  # first kill
        survivor = MonitorService.recover(directory)
        results += [survivor.process(tick) for tick in ticks[4:8]]
        survivor.snapshot()
        results.append(survivor.process(ticks[8]))
        del survivor  # second kill
        final = MonitorService.recover(directory)
        assert final.recovery_report.snapshot_seq >= 1
        results += [final.process(tick) for tick in ticks[9:]]
        equal, why = results_equal(reference, results)
        assert equal, why


class TestTornWrites:
    def test_torn_tail_discards_only_the_unacknowledged_tick(
            self, fleet, tmp_path, ticks, reference):
        """Cut the final record mid-write: recovery reports the torn
        tail, resumes one tick earlier, and re-feeding from there is
        again element-wise identical."""
        directory = str(tmp_path / "state")
        service = MonitorService(fleet(), persist_dir=directory)
        kill_after = 6
        results = [service.process(tick) for tick in ticks[:kill_after]]
        del service
        tear_journal_tail(directory, 13)  # mid-record cut
        recovered = MonitorService.recover(directory)
        report = recovered.recovery_report
        assert report.torn_tail_bytes > 0
        assert report.ticks_replayed == kill_after - 1  # last tick torn
        assert recovered.ticks_processed == kill_after - 1
        # the torn tick was never acknowledged: the source re-sends it
        results = results[:kill_after - 1]
        results += [recovered.process(tick) for tick in ticks[kill_after - 1:]]
        equal, why = results_equal(reference, results)
        assert equal, why

    def test_mid_journal_corruption_is_loud(self, fleet, tmp_path, ticks):
        directory = str(tmp_path / "state")
        service = MonitorService(fleet(), persist_dir=directory)
        for tick in ticks[:5]:
            service.process(tick)
        del service
        corrupt_journal_middle(directory)
        with pytest.raises(JournalCorruptError):
            MonitorService.recover(directory)


class TestSnapshotFaults:
    def test_corrupted_snapshot_is_loud(self, fleet, tmp_path, ticks):
        directory = str(tmp_path / "state")
        service = MonitorService(fleet(), persist_dir=directory)
        for tick in ticks[:4]:
            service.process(tick)
        service.snapshot()
        del service
        corrupt_snapshot(directory)
        # never a silent fall-back to an older fleet state
        with pytest.raises(SnapshotError, match="checksum"):
            MonitorService.recover(directory)

    def test_half_written_snapshot_is_ignored(self, fleet, tmp_path, ticks,
                                              reference):
        directory = str(tmp_path / "state")
        service = MonitorService(fleet(), persist_dir=directory)
        kill_after = 5
        results = [service.process(tick) for tick in ticks[:kill_after]]
        del service
        half_written_snapshot(directory)  # crash mid-snapshot: tmp only
        recovered = MonitorService.recover(directory)
        assert recovered.recovery_report.snapshot_seq == -1  # tmp unseen
        results += [recovered.process(tick) for tick in ticks[kill_after:]]
        equal, why = results_equal(reference, results)
        assert equal, why


class TestClockSkew:
    def test_backwards_fleet_clock_quarantines_and_recovers(self, fleet):
        """A gateway clock stepping back must neither crash the service
        nor double-apply ticks: skewed ticks quarantine as stale and the
        stream resumes once the clock passes its high-water mark."""
        base = fleet_ticks(20, N_TICKS, seed=7)
        skewed = skewed_ticks(base, skew_at=5, skew_minutes=20.0)
        service = MonitorService(fleet())
        results = drive(service, skewed)
        # ticks 5..8 land at/behind the high-water mark (t=20): stale
        for i in range(5, 9):
            assert len(results[i].rejected) == 20, f"tick {i}"
            assert all(r.reason == "stale-timestamp"
                       for r in results[i].rejected)
        assert service.health == "DEGRADED"
        # tick 9 (t = 45-20 = 25) clears the mark and processes again
        for i in range(9, N_TICKS):
            assert results[i].rejected == []
        assert service.rejected_by_reason == {"stale-timestamp": 80}

    def test_skew_survives_crash_recovery(self, fleet, tmp_path):
        """Quarantine decisions are deterministic, so a skewed stream
        recovers bit-exact like any other -- a quarantined NaN reading
        included."""
        base = fleet_ticks(20, N_TICKS, seed=7)
        cgm = base[2].cgm.copy()
        cgm[3] = np.nan
        base[2] = dataclasses.replace(base[2], cgm=cgm)
        skewed = skewed_ticks(base, skew_at=5, skew_minutes=20.0)
        reference = drive(MonitorService(fleet()), skewed)
        bad, = reference[2].rejected
        assert bad.reason == "bad-glucose" and np.isnan(bad.value)
        results, _ = crash_recovery_run(
            fleet(), skewed, str(tmp_path / "state"), kill_after=7,
            snapshot_every=3)
        equal, why = results_equal(reference, results)
        assert equal, why