"""Parity tests for parallel monitor replay and threshold learning.

In the spirit of the executor parity suite (``test_executor.py``):
``replay_campaign`` and ``learn_thresholds``/``mine_rule_samples`` must be
element-wise identical to their serial counterparts at every worker count —
worker count is a wall-clock knob, never a semantics knob.
"""

import numpy as np
import pytest

from repro.baselines import GuidelineMonitor
from repro.core import (cawot_monitor, cawt_monitor, learn_thresholds,
                        mine_rule_samples)
from repro.ml import FEATURE_NAMES, trace_features
from repro.parallel import map_chunks, resolve_workers
from repro.simulation import (CampaignStoreWriter, TraceDataset,
                              iter_contexts, replay_campaign, replay_many,
                              run_fault_free)
from tests.conftest import replay_alone

WORKER_COUNTS = (2, 4)


@pytest.fixture(scope="module")
def monitors():
    return {"CAWOT": cawot_monitor(), "Guideline": GuidelineMonitor()}


class TestReplayCampaignParity:
    def test_matches_serial_at_every_worker_count(self, monitors,
                                                  tiny_campaign_traces):
        serial = replay_campaign(monitors, tiny_campaign_traces, workers=1)
        for workers in WORKER_COUNTS:
            parallel = replay_campaign(monitors, tiny_campaign_traces,
                                       workers=workers)
            assert set(parallel) == set(serial)
            for name in serial:
                assert len(parallel[name]) == len(tiny_campaign_traces)
                for a, b in zip(serial[name], parallel[name]):
                    assert np.array_equal(a, b)

    def test_matches_per_trace_replay(self, monitors, tiny_campaign_traces):
        campaign = replay_campaign(monitors, tiny_campaign_traces, workers=2)
        for name, monitor in monitors.items():
            for trace, alerts in zip(tiny_campaign_traces, campaign[name]):
                assert np.array_equal(alerts, replay_alone(monitor, trace)[0])

    def test_replay_many_workers_kwarg(self, tiny_campaign_traces):
        monitor = cawot_monitor()
        serial = replay_many(monitor, tiny_campaign_traces)
        parallel = replay_many(monitor, tiny_campaign_traces, workers=2)
        assert all(np.array_equal(a, b) for a, b in zip(serial, parallel))

    def test_accepts_plain_iterables(self, monitors, tiny_campaign_traces):
        from_iter = replay_campaign(monitors, iter(tiny_campaign_traces))
        from_list = replay_campaign(monitors, tiny_campaign_traces)
        for name in monitors:
            assert all(np.array_equal(a, b) for a, b in
                       zip(from_iter[name], from_list[name]))

    def test_empty_inputs(self, monitors):
        assert replay_campaign(monitors, []) == {"CAWOT": [],
                                                 "Guideline": []}
        assert replay_campaign({}, []) == {}


class TestLearnThresholdsParity:
    def test_mined_samples_identical(self, tiny_campaign_traces):
        serial = mine_rule_samples(tiny_campaign_traces, workers=1)
        for workers in WORKER_COUNTS:
            parallel = mine_rule_samples(tiny_campaign_traces,
                                         workers=workers)
            for a, b in zip(serial, parallel):
                assert a.rule.index == b.rule.index
                assert np.array_equal(a.values, b.values)
                assert np.array_equal(a.safe_values, b.safe_values)

    def test_thresholds_byte_identical(self, tiny_campaign_traces,
                                       tiny_fault_free_traces):
        traces = list(tiny_campaign_traces) + list(tiny_fault_free_traces)
        serial = learn_thresholds(traces, workers=1)
        for workers in WORKER_COUNTS:
            parallel = learn_thresholds(traces, workers=workers)
            assert parallel.thresholds == serial.thresholds
            assert parallel.learned_params == serial.learned_params
            for a, b in zip(serial.fits, parallel.fits):
                # NaN losses (un-mined rules) compare unequal under ==
                assert (a.param, a.value, a.n_samples, a.used_default,
                        a.converged, a.violations) == \
                       (b.param, b.value, b.n_samples, b.used_default,
                        b.converged, b.violations)
                assert a.loss == b.loss or (np.isnan(a.loss)
                                            and np.isnan(b.loss))

    def test_learned_monitor_behaves_identically(self, tiny_campaign_traces):
        serial = cawt_monitor(
            learn_thresholds(tiny_campaign_traces, workers=1).thresholds)
        parallel = cawt_monitor(
            learn_thresholds(tiny_campaign_traces, workers=4).thresholds)
        trace = tiny_campaign_traces[0]
        assert np.array_equal(replay_alone(serial, trace)[0],
                              replay_alone(parallel, trace)[0])


class TestForkMapChunks:
    """The one fan-out rule itself: ``map_chunks`` in-process and on the
    forked pool."""

    def test_results_in_chunk_order(self):
        serial = [sum(range(lo, min(lo + 3, 20))) for lo in range(0, 20, 3)]
        parallel = list(map_chunks(sum, range(20), 3, workers=3))
        assert parallel == serial

    def test_serial_fallback_single_chunk(self):
        assert list(map_chunks(sum, range(5), 5, workers=8)) == [10]

    @pytest.fixture(scope="class")
    def dataset_84(self, tmp_path_factory):
        """An 84-trace lazy store (short fault-free runs)."""
        directory = str(tmp_path_factory.mktemp("store84"))
        with CampaignStoreWriter(directory, "glucosym", 3) as writer:
            run_fault_free("glucosym", ["A", "B"],
                           [100.0 + i for i in range(42)], n_steps=3,
                           cache=None, sink=writer)
        return directory

    @pytest.mark.parametrize("workers", [1, 2])
    def test_chunk_contract(self, workers, dataset_84):
        """The same fixed-size chunks at every worker count, over a list,
        a generator and a lazy TraceDataset; with the pool, each worker
        loads its own chunk's shards and the parent loads none."""
        expected = [24, 24, 24, 12]
        assert list(map_chunks(len, list(range(84)), 24, workers)) \
            == expected
        assert list(map_chunks(len, (i for i in range(84)), 24, workers)) \
            == expected
        dataset = TraceDataset.open(dataset_84)
        assert list(map_chunks(len, dataset, 24, workers)) == expected
        assert dataset.stats.n_loads == (84 if workers == 1 else 0)

    def test_fork_unavailable_falls_back_in_process(self, monkeypatch):
        import multiprocessing
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        with pytest.warns(RuntimeWarning, match="fork"):
            result = list(map_chunks(sum, range(20), 3, workers=2))
        assert result == list(map_chunks(sum, range(20), 3, workers=1))

    def test_resolve_workers(self, monkeypatch):
        assert resolve_workers(3) == 3
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers(None) == 5
        with pytest.raises(ValueError):
            resolve_workers(0)
        for bad in ("", "two", "0"):
            monkeypatch.setenv("REPRO_WORKERS", bad)
            with pytest.raises(ValueError,
                               match=f"REPRO_WORKERS.*{bad!r}"):
                resolve_workers(None)


class TestSharedContextReconstruction:
    """Regression for the iter_contexts / trace_features duplication drift:
    both sides now delegate to ``repro.simulation.features``, and must agree
    cycle-for-cycle on the same trace."""

    def test_replay_and_ml_features_agree_cycle_for_cycle(
            self, tiny_campaign_traces):
        for trace in tiny_campaign_traces[:8]:
            matrix = trace_features(trace)
            replayed = np.array([[ctx.channels()[name] for name in FEATURE_NAMES]
                                 for ctx in iter_contexts(trace)])
            assert matrix.shape == replayed.shape
            np.testing.assert_array_equal(matrix, replayed)

    def test_context_stream_metadata(self, tiny_campaign_traces):
        trace = tiny_campaign_traces[0]
        contexts = list(iter_contexts(trace))
        assert len(contexts) == len(trace)
        assert contexts[0].bg_rate == 0.0
        assert contexts[0].t == trace.t[0]
