"""A state directory written by an earlier build keeps recovering.

``data/service_v1/`` was persisted by the build that still kept a 24-row
per-user context ring, so its ``service.json`` holds a ``window`` key and
its snapshot a ``ring`` entry; this build reads neither.  Its monitors are
kinds whose verdicts do not depend on the BLAS build: CAWOT, Guideline,
MPC (horizon 6) and a depth-3 DT fitted on eight tiny-campaign traces.
Five scripted users (``falling``, ``rising``, ``steady``, ``bolus`` and
``late``) tick every 5 minutes:

- ``falling`` connects explicitly, the others on first sight;
- the service snapshots after tick 5 (snapshot 1, six ticks);
- journal segment 1 holds ticks 6-11, and before tick 10 ``rising``
  disconnects and reconnects (a recycled slot) while ``late`` joins;
- ``steady`` sends NaN glucose at ticks 8 and 14 and ``bolus`` skips
  tick 9.

``data/service_v1_continuation.json`` holds what followed: a redelivery
of tick 11, which every user must refuse as stale, then ticks 12-17,
with the alerts, hazards, quarantined rows and notifications that build
served for them without a crash, and the recovery report it gave.
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.serve import MonitorService, TickBatch
from repro.serve.persist import read_snapshot

DATA = Path(__file__).parent / "data"
RECORD = json.loads((DATA / "service_v1_continuation.json").read_text())
CHANNELS = ("cgm", "iob", "iob_rate", "rate", "bolus", "action")


def _tick(record):
    return TickBatch(t=record["t"], user_ids=tuple(record["user_ids"]),
                     **{name: np.array(record[name]) for name in CHANNELS})


def _served(result):
    """A tick result in the recorded JSON layout."""
    return {"alerts": {name: flags.astype(int).tolist()
                       for name, flags in result.alerts.items()},
            "hazards": {name: codes.astype(int).tolist()
                        for name, codes in result.hazards.items()},
            "rejected": [[r.user_id, r.reason] for r in result.rejected],
            "events": [[e.t, e.user_id, e.monitor, int(e.hazard),
                        e.suppressed, e.streak, e.escalated]
                       for e in result.events]}


@pytest.fixture
def directory(tmp_path):
    """A copy: recovery reopens the journal for appending."""
    copy = tmp_path / "service_v1"
    shutil.copytree(DATA / "service_v1", copy)
    return str(copy)


def test_fixture_holds_the_ring_layout():
    config = json.loads((DATA / "service_v1" / "service.json").read_text())
    assert config["window"] == 24
    snapshot = read_snapshot(str(DATA / "service_v1"
                                 / "snapshot-00000001.ckpt"))
    assert snapshot["ring"]["data"].shape == (24, 8, 8)


def test_recovery_report(directory):
    service = MonitorService.recover(directory, fsync=False)
    report = service.recovery_report
    expected = dict(RECORD["recovery"])
    assert service.n_users == expected.pop("n_users")
    assert {name: getattr(report, name) for name in expected} == expected
    service.close()


def test_continuation_serves_the_recorded_verdicts(directory):
    service = MonitorService.recover(directory, fsync=False)
    for tick, served in zip(RECORD["ticks"], RECORD["served"], strict=True):
        assert _served(service.process(_tick(tick))) == served
    service.close()


def test_resnapshot_drops_the_ring(directory):
    """Snapshotting the upgraded service writes this build's layout, and
    recovering from it continues the recorded stream."""
    ticks, served = RECORD["ticks"], RECORD["served"]
    service = MonitorService.recover(directory, fsync=False)
    for tick, want in zip(ticks[:3], served[:3]):
        assert _served(service.process(_tick(tick))) == want
    assert "ring" not in read_snapshot(service.snapshot())
    service.close()
    service = MonitorService.recover(directory, fsync=False)
    for tick, want in zip(ticks[3:], served[3:], strict=True):
        assert _served(service.process(_tick(tick))) == want
    service.close()
