"""Persistence primitives: journal framing, atomic snapshots, recovery."""

import errno
import os
import pickle
import struct
import zlib

import numpy as np
import pytest

from repro.baselines import GuidelineMonitor
from repro.core import ContextAwareMonitor, cawot_monitor, cawt_monitor
from repro.core.monitor import NO_ALERT, SafetyMonitor
from repro.core.rules import aps_rules
from repro.ml.monitors import LSTMMonitor
from repro.serve import (JournalCorruptError, MonitorService,
                         PersistenceError, SnapshotError, TickBatch,
                         TickJournal, replay_log)
from repro.serve.persist import (list_segments, list_snapshots, read_config,
                                 read_journal, read_snapshot, segment_path,
                                 snapshot_path, write_snapshot)
from repro.serve.chaos import results_equal
from repro.simulation import iter_trace_ticks, replay_campaign
from tests.conftest import ramp_ticks


class CustomMonitor(SafetyMonitor):
    def observe(self, ctx):
        return NO_ALERT


def _monitors():
    return {"CAWT": cawt_monitor({"beta1": 75.0}),
            "CAWOT": cawot_monitor(),
            "Guideline": GuidelineMonitor()}


def _tick(t, user_ids, bg):
    n = len(user_ids)
    return TickBatch(t=t, user_ids=tuple(user_ids),
                     cgm=np.asarray(bg, dtype=float), iob=np.full(n, 1.0),
                     iob_rate=np.zeros(n), rate=np.full(n, 1.2),
                     bolus=np.zeros(n), action=np.full(n, 4))


class TestTickJournal:
    def test_append_read_round_trip(self, tmp_path):
        path = str(tmp_path / "j.wal")
        with TickJournal(path) as journal:
            journal.append("tick", {"t": 0.0, "cgm": np.arange(3.0)})
            journal.append("connect", "user-7")
            journal.append("disconnect", ("tuple", 3))
        result = read_journal(path)
        assert result.torn_tail_bytes == 0
        assert result.next_seq == 3
        kinds = [kind for kind, _ in result.records]
        assert kinds == ["tick", "connect", "disconnect"]
        np.testing.assert_array_equal(result.records[0][1]["cgm"],
                                      np.arange(3.0))
        assert result.records[1][1] == "user-7"

    def test_reopen_resumes_sequence(self, tmp_path):
        path = str(tmp_path / "j.wal")
        with TickJournal(path) as journal:
            journal.append("a", 1)
        with TickJournal(path) as journal:
            assert journal.next_seq == 1
            journal.append("b", 2)
        result = read_journal(path)
        assert [k for k, _ in result.records] == ["a", "b"]

    @pytest.mark.parametrize("cut", [1, 3, 10])
    def test_torn_tail_discarded_and_truncated(self, tmp_path, cut):
        path = str(tmp_path / "j.wal")
        with TickJournal(path) as journal:
            journal.append("keep", {"x": np.ones(4)})
            journal.append("torn", {"y": np.zeros(4)})
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size - cut)
        result = read_journal(path, truncate_tail=True)
        assert [k for k, _ in result.records] == ["keep"]
        assert result.torn_tail_bytes > 0
        # physically truncated: appending resumes cleanly after "keep"
        with TickJournal(path, next_seq=result.next_seq) as journal:
            journal.append("after", None)
        again = read_journal(path)
        assert [k for k, _ in again.records] == ["keep", "after"]
        assert again.torn_tail_bytes == 0

    def test_mid_journal_corruption_is_loud(self, tmp_path):
        path = str(tmp_path / "j.wal")
        with TickJournal(path) as journal:
            journal.append("first", b"A" * 64)
            journal.append("second", b"B" * 64)
        # flip a byte inside the FIRST record's payload: valid bytes
        # follow, so this is bit rot, not a torn tail
        with open(path, "r+b") as fh:
            fh.seek(30)
            byte = fh.read(1)
            fh.seek(30)
            fh.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(JournalCorruptError, match="checksum mismatch"):
            read_journal(path)

    def test_bad_header_is_loud(self, tmp_path):
        path = tmp_path / "j.wal"
        path.write_bytes(b"NOPE" + b"\x01\x00\x00\x00")
        with pytest.raises(JournalCorruptError, match="bad magic"):
            read_journal(str(path))
        short = tmp_path / "short.wal"
        short.write_bytes(b"RP")
        with pytest.raises(JournalCorruptError, match="shorter than"):
            read_journal(str(short))

    def test_schema_mismatch_is_loud(self, tmp_path):
        path = tmp_path / "j.wal"
        path.write_bytes(struct.pack("<4sI", b"RPWJ", 999))
        with pytest.raises(JournalCorruptError, match="schema"):
            read_journal(str(path))

    def test_sequence_gap_is_loud(self, tmp_path):
        """Hand-crafted journal whose records jump seq 0 -> 2: framing is
        intact, but a record was lost — corruption, not a tail."""
        path = tmp_path / "j.wal"
        frames = b""
        for seq in (0, 2):
            blob = pickle.dumps((seq, "tick", None),
                                protocol=pickle.HIGHEST_PROTOCOL)
            frames += struct.pack("<II", len(blob), zlib.crc32(blob)) + blob
        path.write_bytes(struct.pack("<4sI", b"RPWJ", 1) + frames)
        with pytest.raises(JournalCorruptError, match="sequence gap"):
            read_journal(str(path))

    def test_closed_journal_refuses_appends(self, tmp_path):
        journal = TickJournal(str(tmp_path / "j.wal"))
        journal.close()
        with pytest.raises(PersistenceError, match="closed"):
            journal.append("tick", None)


class TestSnapshot:
    def test_round_trip_is_bit_exact(self, tmp_path):
        path = str(tmp_path / "s.ckpt")
        state = {"data": np.linspace(0.0, 1.0, 37).reshape(37, 1),
                 "counts": np.arange(5, dtype=np.int64),
                 "nested": {"deque": [1, 2, 3], "t": -np.inf}}
        write_snapshot(path, state)
        loaded = read_snapshot(path)
        np.testing.assert_array_equal(loaded["data"], state["data"])
        assert loaded["data"].dtype == state["data"].dtype
        np.testing.assert_array_equal(loaded["counts"], state["counts"])
        assert loaded["nested"] == state["nested"]
        # no tmp residue after a successful publish
        assert not os.path.exists(path + ".tmp")

    def test_truncated_snapshot_is_loud(self, tmp_path):
        path = str(tmp_path / "s.ckpt")
        write_snapshot(path, {"x": np.ones(100)})
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[:len(blob) - 17])
        with pytest.raises(SnapshotError, match="truncated"):
            read_snapshot(path)

    def test_corrupted_snapshot_is_loud(self, tmp_path):
        path = str(tmp_path / "s.ckpt")
        write_snapshot(path, {"x": np.ones(100)})
        with open(path, "r+b") as fh:
            fh.seek(os.path.getsize(path) // 2)
            byte = fh.read(1)
            fh.seek(-1, os.SEEK_CUR)
            fh.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(SnapshotError, match="checksum"):
            read_snapshot(path)

    def test_bad_magic_and_missing_file_are_loud(self, tmp_path):
        path = tmp_path / "s.ckpt"
        path.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNK")
        with pytest.raises(SnapshotError, match="bad magic"):
            read_snapshot(str(path))
        with pytest.raises(SnapshotError, match="unreadable"):
            read_snapshot(str(tmp_path / "nowhere.ckpt"))


class TestServicePersistence:
    def test_refuses_dirty_directory(self, tmp_path):
        directory = str(tmp_path / "state")
        service = MonitorService(_monitors(), persist_dir=directory)
        service.process(_tick(0.0, ("a",), [120.0]))
        service.close()
        with pytest.raises(PersistenceError, match="already holds"):
            MonitorService(_monitors(), persist_dir=directory)

    def test_recover_empty_state_directory(self, tmp_path):
        directory = str(tmp_path / "state")
        MonitorService(_monitors(), persist_dir=directory).close()
        recovered = MonitorService.recover(directory)
        assert recovered.ticks_processed == 0
        assert recovered.recovery_report.ticks_replayed == 0
        recovered.process(_tick(0.0, ("a",), [120.0]))  # journal reopened

    def test_recover_missing_directory_is_loud(self, tmp_path):
        with pytest.raises(PersistenceError, match="no service config"):
            MonitorService.recover(str(tmp_path / "nowhere"))

    def test_snapshot_rotates_and_prunes(self, tmp_path):
        directory = str(tmp_path / "state")
        service = MonitorService(_monitors(), persist_dir=directory)
        for step in range(3):
            service.process(_tick(step * 5.0, ("a",), [120.0 + step]))
        service.snapshot()
        for step in range(3, 5):
            service.process(_tick(step * 5.0, ("a",), [120.0 + step]))
        service.snapshot()
        # only the newest checkpoint and its live segment survive
        assert [seq for seq, _ in list_snapshots(directory)] == [2]
        assert [seq for seq, _ in list_segments(directory)] == [2]
        assert service.snapshots_written == 2

    def test_config_round_trips_the_knobs(self, tmp_path):
        directory = str(tmp_path / "state")
        service = MonitorService(
            _monitors(), dt=10.0, dedup_window=30.0,
            escalate_after=None, auto_connect=False,
            dead_letter_capacity=9, health_window=4,
            persist_dir=directory)
        service.connect("a")
        service.process(_tick(0.0, ("a",), [130.0]))
        service.close()
        recovered = MonitorService.recover(directory)
        assert recovered.dt == 10.0
        assert recovered.alert_manager.window == 30.0
        assert recovered.alert_manager.escalate_after is None
        assert recovered.auto_connect is False
        assert recovered.dead_letters.maxlen == 9
        assert recovered.health_window == 4
        assert recovered.n_users == 1

    def test_persisted_layout_holds_no_context_history(self, tmp_path):
        """This build's config and snapshot keys, pinned: neither holds a
        context window.  Changing either is a durable-format change (see
        ``PERSIST_SCHEMA_VERSION``)."""
        directory = str(tmp_path / "state")
        service = MonitorService(_monitors(), persist_dir=directory,
                                 fsync=False)
        service.process(_tick(0.0, ("a", "b"), [120.0, 130.0]))
        saved = read_snapshot(service.snapshot())
        service.close()
        assert set(read_config(directory)) == {
            "schema", "dt", "dedup_window", "escalate_after",
            "auto_connect", "dead_letter_capacity", "health_window",
            "registry_saved"}
        assert set(saved) == {
            "slots", "free", "last_cgm", "seen", "last_t", "monitor_state",
            "alert_manager", "ticks_processed", "rejected_total",
            "rejected_by_reason", "dead_letters", "recent_rejects"}
        assert saved["slots"] == {"a": 0, "b": 1}
        for key in ("last_cgm", "seen", "last_t"):
            assert saved[key].shape == (8,), key

    def test_recovery_grows_past_the_snapshot_capacity(
            self, tmp_path, all_monitor_kinds):
        """Users who join after the snapshot grow the restored per-slot
        arrays during journal replay; the recovered service then serves
        what an uninterrupted one serves."""
        ticks = ramp_ticks(20, 12, seed=4)
        early = [TickBatch(t=tick.t, user_ids=tick.user_ids[:4],
                           cgm=tick.cgm[:4], iob=tick.iob[:4],
                           iob_rate=tick.iob_rate[:4], rate=tick.rate[:4],
                           bolus=tick.bolus[:4], action=tick.action[:4])
                 for tick in ticks[:3]]
        directory = str(tmp_path / "state")
        crashed = MonitorService(all_monitor_kinds, persist_dir=directory,
                                 fsync=False)
        reference = MonitorService(all_monitor_kinds)
        for tick in early:
            crashed.process(tick)
            reference.process(tick)
        crashed.snapshot()  # four users in eight slots
        for tick in ticks[3:6]:
            crashed.process(tick)
            reference.process(tick)
        del crashed  # hard kill
        recovered = MonitorService.recover(directory, all_monitor_kinds,
                                           fsync=False)
        assert recovered.recovery_report.snapshot_ticks == 3
        assert recovered.recovery_report.ticks_replayed == 3
        assert len(recovered._seen) == 32
        served = [recovered.process(tick) for tick in ticks[6:]]
        expected = [reference.process(tick) for tick in ticks[6:]]
        assert results_equal(served, expected) == (True, "")
        assert all(any(result.alerts[name].any() for result in expected)
                   for name in all_monitor_kinds)

    def test_degraded_counters_survive_recovery(self, tmp_path):
        directory = str(tmp_path / "state")
        service = MonitorService(_monitors(), persist_dir=directory)
        service.process(_tick(0.0, ("a", "b"), [np.nan, 120.0]))
        service.snapshot()
        service.process(_tick(5.0, ("a", "b"), [-4.0, 121.0]))
        service.close()
        recovered = MonitorService.recover(directory)
        assert recovered.rejected_total == 2
        assert recovered.rejected_by_reason == {"bad-glucose": 2}
        assert len(recovered.dead_letters) == 2
        assert recovered.health == "DEGRADED"

    def test_registry_save_io_error_raises(self, tmp_path, monkeypatch,
                                           all_monitor_kinds):
        """A full disk while saving the registry is a real failure, not
        an unsupported monitor kind to record and move past."""
        def full_disk(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(np, "savez", full_disk)
        with pytest.raises(OSError) as info:
            MonitorService({"DT": all_monitor_kinds["DT"]},
                           persist_dir=str(tmp_path / "state"))
        assert info.value.errno == errno.ENOSPC

    @pytest.mark.parametrize("monitor", [
        CustomMonitor(),
        ContextAwareMonitor(rules=aps_rules()[:3])],
        ids=["custom-kind", "rule-subset"])
    def test_unsupported_kind_records_registry_unsaved(self, tmp_path,
                                                       monitor):
        directory = str(tmp_path / "state")
        MonitorService({"m": monitor}, persist_dir=directory).close()
        assert read_config(directory)["registry_saved"] is False

    def test_clone_blob_snapshot_refused(self, tmp_path):
        """Snapshots holding per-user monitor clones (the layout before
        monitor state became per-slot arrays) are refused, typed."""
        directory = str(tmp_path / "state")
        service = MonitorService(_monitors(), persist_dir=directory)
        service.process(_tick(0.0, ("a",), [60.0]))
        path = service.snapshot()
        service.close()
        state = read_snapshot(path)
        del state["monitor_state"]
        state["clones"] = {"Guideline": [
            {"_below_since": 0.0, "_above_since": None}]
            + [None] * (len(state["seen"]) - 1)}
        write_snapshot(path, state)
        with pytest.raises(PersistenceError, match="predates"):
            MonitorService.recover(directory)

    def test_monitor_state_layout_mismatch_refused(self, tmp_path,
                                                   all_monitor_kinds):
        """Recovering with a monitor whose state layout differs from the
        snapshot's (an LSTM with another window) is refused, typed."""
        lstm = all_monitor_kinds["LSTM"]
        directory = str(tmp_path / "state")
        service = MonitorService({"LSTM": lstm}, persist_dir=directory)
        service.process(_tick(0.0, ("a",), [120.0]))
        service.snapshot()
        service.close()
        with pytest.raises(PersistenceError, match="layout"):
            MonitorService.recover(directory, monitors={
                "LSTM": LSTMMonitor(lstm.model, k=lstm.k - 2)})

    def test_non_serializable_registry_requires_monitors(self, tmp_path):
        directory = str(tmp_path / "state")
        monitors = {"custom": CustomMonitor()}
        service = MonitorService(monitors, persist_dir=directory)
        service.process(_tick(0.0, ("a",), [120.0]))
        service.close()
        with pytest.raises(PersistenceError, match="monitors="):
            MonitorService.recover(directory)
        recovered = MonitorService.recover(directory, monitors=monitors)
        assert recovered.ticks_processed == 1

    def test_process_after_close_is_loud(self, tmp_path):
        service = MonitorService(_monitors(),
                                 persist_dir=str(tmp_path / "state"))
        service.close()
        with pytest.raises(PersistenceError, match="closed"):
            service.process(_tick(0.0, ("a",), [120.0]))

    def test_crash_between_snapshot_and_rotation(self, tmp_path):
        """Snapshot published but the fresh segment never created (the
        narrowest crash window in snapshot()): recovery starts a new
        segment at the checkpoint and loses nothing."""
        directory = str(tmp_path / "state")
        service = MonitorService(_monitors(), persist_dir=directory)
        service.process(_tick(0.0, ("a",), [120.0]))
        service.snapshot()
        service.close()
        os.remove(segment_path(directory, 1))  # the post-rotation segment
        recovered = MonitorService.recover(directory)
        assert recovered.ticks_processed == 1
        result = recovered.process(_tick(5.0, ("a",), [130.0]))
        assert result.rejected == []

    def test_deleted_snapshot_with_orphan_segment_is_loud(self, tmp_path):
        """Segment 1 without snapshot 1 or segment 0: durable history is
        gone and recovery must say so, not serve a fresh fleet."""
        directory = str(tmp_path / "state")
        service = MonitorService(_monitors(), persist_dir=directory)
        service.process(_tick(0.0, ("a",), [120.0]))
        service.snapshot()
        service.process(_tick(5.0, ("a",), [121.0]))
        service.close()
        os.remove(snapshot_path(directory, 1))
        with pytest.raises(JournalCorruptError, match="jump"):
            MonitorService.recover(directory)


class TestRecoveredReplayLog:
    """Satellite: replay_log drives a recovered service byte-identically."""

    def test_recovered_service_continues_byte_identical(
            self, tmp_path, tiny_campaign_traces):
        traces = tiny_campaign_traces[:6]
        monitors = _monitors()
        ticks = list(iter_trace_ticks(traces))
        user_ids = tuple(f"trace-{i}" for i in range(len(traces)))

        def batch(trace_tick):
            return TickBatch(t=trace_tick.t, user_ids=user_ids,
                             cgm=trace_tick.cgm, iob=trace_tick.iob,
                             iob_rate=trace_tick.iob_rate,
                             rate=trace_tick.rate, bolus=trace_tick.bolus,
                             action=trace_tick.action)

        kill_after = len(ticks) // 2
        directory = str(tmp_path / "state")
        service = MonitorService(monitors, persist_dir=directory,
                                 snapshot_every=3)
        for trace_tick in ticks[:kill_after]:
            service.process(batch(trace_tick))
        del service  # hard kill

        # uninterrupted reference over the full log
        reference = MonitorService(monitors)
        ref_results = [reference.process(batch(tt)) for tt in ticks]

        recovered = MonitorService.recover(directory)
        assert recovered.recovery_report.snapshot_seq >= 1
        for i, trace_tick in enumerate(ticks[kill_after:],
                                       start=kill_after):
            result = recovered.process(batch(trace_tick))
            ref = ref_results[i]
            assert result.t == ref.t
            assert result.rejected == []
            for name in ref.alerts:
                np.testing.assert_array_equal(result.alerts[name],
                                              ref.alerts[name])
                np.testing.assert_array_equal(result.hazards[name],
                                              ref.hazards[name])
            assert result.events == ref.events

    def test_replay_log_redelivery_into_recovered_service(
            self, tmp_path, tiny_campaign_traces):
        """At-least-once redelivery of the WHOLE log into a recovered
        service: already-applied ticks quarantine as stale, the rest
        lands byte-identical to offline replay_campaign."""
        traces = tiny_campaign_traces[:6]
        monitors = _monitors()
        ticks = list(iter_trace_ticks(traces))
        user_ids = tuple(f"trace-{i}" for i in range(len(traces)))
        kill_after = len(ticks) // 2
        directory = str(tmp_path / "state")
        service = MonitorService(monitors, persist_dir=directory)
        for trace_tick in ticks[:kill_after]:
            service.process(TickBatch(
                t=trace_tick.t, user_ids=user_ids, cgm=trace_tick.cgm,
                iob=trace_tick.iob, iob_rate=trace_tick.iob_rate,
                rate=trace_tick.rate, bolus=trace_tick.bolus,
                action=trace_tick.action))
        del service  # hard kill

        recovered = MonitorService.recover(directory)
        served = replay_log(monitors, traces, service=recovered)
        offline = replay_campaign(monitors, traces)
        for name in monitors:
            for served_alerts, offline_alerts in zip(served[name],
                                                     offline[name]):
                # redelivered prefix: quarantined, reads silent
                assert not served_alerts[:kill_after].any()
                # the live tail is the offline stream, element-wise
                np.testing.assert_array_equal(
                    served_alerts[kill_after:],
                    offline_alerts[kill_after:])
        assert recovered.rejected_by_reason.get("stale-timestamp", 0) > 0