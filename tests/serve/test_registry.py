"""MonitorRegistry: exact round-trips of trained monitor state."""

import json
import os

import numpy as np
import pytest

from repro.baselines import GuidelineMonitor, MPCMonitor
from repro.core import ContextAwareMonitor, cawot_monitor, cawt_monitor
from repro.core.monitor import SafetyMonitor
from repro.core.rules import aps_rules
from repro.ml import (LSTMClassifier, LSTMMonitor, MLPClassifier, MLPMonitor,
                      TrainingJob, build_point_dataset, build_window_dataset,
                      run_training_jobs)
from repro.ml.training import monitor_state
from repro.serve import MonitorRegistry, RegistryError
from repro.simulation import replay_campaign


@pytest.fixture(scope="module")
def trained(tiny_campaign_traces):
    """Small but genuinely trained ML monitors over the shared campaign."""
    traces = tiny_campaign_traces[:16]
    (dt,) = run_training_jobs([TrainingJob.make("dt", max_depth=4)], traces)
    mlp = MLPClassifier(hidden=(16, 8), max_epochs=2, seed=0).fit(
        *build_point_dataset(traces))
    lstm = LSTMClassifier(hidden=(8,), max_epochs=2, seed=0).fit(
        *build_window_dataset(traces, k=4))
    return {"DT": dt.monitor, "MLP": MLPMonitor(mlp),
            "LSTM": LSTMMonitor(lstm, k=4)}


@pytest.fixture(scope="module")
def registry(trained):
    return MonitorRegistry({
        "CAWT": cawt_monitor({"beta1": 75.0, "beta21": 0.4}),
        "CAWOT": cawot_monitor(),
        "Guideline": GuidelineMonitor(lambda_10=85.0, lambda_90=165.0),
        "MPC": MPCMonitor(horizon_steps=3),
        **trained,
    })


@pytest.fixture(scope="module")
def reloaded(registry, tmp_path_factory):
    directory = tmp_path_factory.mktemp("registry")
    registry.save(str(directory))
    return MonitorRegistry.load(str(directory))


class TestRoundTrip:
    def test_names_and_order_survive(self, registry, reloaded):
        assert reloaded.names == registry.names

    @pytest.mark.parametrize("name", ["DT", "MLP", "LSTM"])
    def test_ml_state_is_bit_identical(self, registry, reloaded, name):
        before = monitor_state(registry[name])
        after = monitor_state(reloaded[name])
        assert len(before) == len(after)
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a, b)

    def test_context_aware_thresholds_survive(self, registry, reloaded):
        assert reloaded["CAWT"].thresholds == registry["CAWT"].thresholds
        assert reloaded["CAWT"].bg_target == registry["CAWT"].bg_target
        assert reloaded["CAWT"].name == "CAWT"
        assert reloaded["CAWOT"].thresholds == registry["CAWOT"].thresholds

    def test_constructor_baselines_survive(self, registry, reloaded):
        for param in ("bg_low", "bg_high", "lambda_10", "lambda_90", "alpha"):
            assert getattr(reloaded["Guideline"], param) == \
                getattr(registry["Guideline"], param)
        assert reloaded["MPC"].horizon_steps == 3

    def test_reloaded_verdicts_replay_identically(self, registry, reloaded,
                                                  tiny_campaign_traces):
        traces = tiny_campaign_traces[:6]
        before = replay_campaign(dict(registry.items()), traces)
        after = replay_campaign(dict(reloaded.items()), traces)
        for name in registry.names:
            for a, b in zip(before[name], after[name]):
                np.testing.assert_array_equal(a, b)

    def test_state_layout_survives(self, registry, reloaded):
        """A reloaded monitor keeps the per-column state layout that
        service snapshots are checked against."""
        for name in registry.names:
            before = registry[name].init_state(3)
            after = reloaded[name].init_state(3)
            assert before.keys() == after.keys()
            for key in before:
                assert after[key].shape == before[key].shape
                assert after[key].dtype == before[key].dtype


class TestErrors:
    def test_empty_registry_refused(self):
        with pytest.raises(RegistryError, match="at least one"):
            MonitorRegistry({})

    def test_unsupported_monitor_refused(self, tmp_path):
        class Custom(SafetyMonitor):
            def init_state(self, n_cols):
                return {}

            def observe_batch(self, batch, state=None):
                raise AssertionError("never evaluated")

        with pytest.raises(RegistryError, match="Custom"):
            MonitorRegistry({"custom": Custom()}).save(str(tmp_path))

    def test_custom_rule_subset_refused(self, tmp_path):
        subset = ContextAwareMonitor(rules=aps_rules()[:3])
        with pytest.raises(NotImplementedError, match="rule subset"):
            MonitorRegistry({"subset": subset}).save(str(tmp_path))

    def test_missing_directory(self, tmp_path):
        with pytest.raises(RegistryError, match="no registry manifest"):
            MonitorRegistry.load(str(tmp_path / "nowhere"))

    def test_corrupt_manifest(self, tmp_path):
        (tmp_path / "registry.json").write_text("{not json")
        with pytest.raises(RegistryError, match="unreadable"):
            MonitorRegistry.load(str(tmp_path))

    def test_schema_mismatch(self, tmp_path):
        (tmp_path / "registry.json").write_text(
            json.dumps({"schema": 999, "monitors": []}))
        with pytest.raises(RegistryError, match="schema"):
            MonitorRegistry.load(str(tmp_path))

    def test_missing_arrays_file(self, registry, tmp_path):
        registry.save(str(tmp_path))
        manifest = json.loads((tmp_path / "registry.json").read_text())
        for entry in manifest["monitors"]:
            if entry["arrays"]:
                os.remove(tmp_path / entry["arrays"])
                break
        with pytest.raises(RegistryError, match="missing arrays"):
            MonitorRegistry.load(str(tmp_path))

    def test_unknown_kind_in_manifest(self, tmp_path):
        (tmp_path / "registry.json").write_text(json.dumps(
            {"schema": 1, "monitors": [{"name": "x", "kind": "quantum",
                                        "config": {}, "arrays": None}]}))
        with pytest.raises(RegistryError, match="unknown monitor kind"):
            MonitorRegistry.load(str(tmp_path))

    def test_truncated_npz_is_a_registry_error(self, registry, tmp_path):
        """A half-written arrays file must surface as RegistryError, not
        whatever zipfile/pickle exception numpy happens to raise."""
        registry.save(str(tmp_path))
        manifest = json.loads((tmp_path / "registry.json").read_text())
        victim = next(entry["arrays"] for entry in manifest["monitors"]
                      if entry["arrays"])
        path = tmp_path / victim
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(RegistryError, match="corrupt arrays"):
            MonitorRegistry.load(str(tmp_path))

    def test_manifest_kind_mismatch_is_a_registry_error(
            self, registry, tmp_path):
        """Arrays saved for one kind, manifest claiming another: the
        rebuild mismatch must be typed, never a bare KeyError."""
        registry.save(str(tmp_path))
        manifest = json.loads((tmp_path / "registry.json").read_text())
        for entry in manifest["monitors"]:
            if entry["kind"] == "dt":
                entry["kind"] = "mlp"  # dt arrays can't rebuild an mlp
        (tmp_path / "registry.json").write_text(json.dumps(manifest))
        with pytest.raises(RegistryError, match="cannot rebuild"):
            MonitorRegistry.load(str(tmp_path))


class TestTreeNodeArrays:
    def test_from_node_arrays_round_trip_predicts_identically(
            self, trained, tiny_campaign_traces):
        from repro.ml.tree import DecisionTreeClassifier

        tree = trained["DT"].model
        rebuilt = DecisionTreeClassifier.from_node_arrays(
            *tree.node_arrays(), tree.classes_)
        rng = np.random.default_rng(0)
        X = rng.normal(scale=100.0, size=(256, 10))
        np.testing.assert_array_equal(rebuilt.predict(X), tree.predict(X))
        for a, b in zip(tree.node_arrays(), rebuilt.node_arrays()):
            np.testing.assert_array_equal(a, b)

    def test_malformed_preorder_rejected(self):
        from repro.ml.tree import DecisionTreeClassifier

        with pytest.raises(ValueError, match="zero nodes"):
            DecisionTreeClassifier.from_node_arrays(
                [], [], np.zeros((0, 2)), [0, 1])
        with pytest.raises(ValueError, match="unclosed"):
            DecisionTreeClassifier.from_node_arrays(
                [0, -1], [1.0, 0.0], np.ones((2, 2)), [0, 1])
        with pytest.raises(ValueError, match="without a parent"):
            DecisionTreeClassifier.from_node_arrays(
                [-1, -1], [0.0, 0.0], np.ones((2, 2)), [0, 1])
