"""Cross-entropy scenario search: discovery efficiency vs the fixed grid.

Benchmarks the ``repro.search`` hazard hunter on the ``ci`` grid scale
(2 patients, the 3x stride-21 campaign as the baseline) and asserts the
acceptance bar for the subsystem: the search must find at least
``EFFICIENCY_FLOOR`` (3x) more hazards per simulation than the paper's
fixed fault-injection grid, per patient and overall, on the lock-step
engine.  A determinism test pins bit-identical findings across executor
shapes, mirroring the parity suites.

Run:  pytest benchmarks/bench_search.py --benchmark-only -s
"""

import pytest

import repro.parallel
from repro.experiments import ExperimentConfig
from repro.experiments.data import platform_data
from repro.experiments.search import run_search, search_vs_grid
from repro.search import CrossEntropySearch

CONFIG = ExperimentConfig.preset("ci")

#: acceptance bar: hazards-per-simulation ratio search / grid
EFFICIENCY_FLOOR = 3.0


def _grid_rate(config, patient_id=None):
    data = platform_data(config)
    if patient_id is not None:
        traces = data.by_patient[patient_id]
    else:
        traces = [t for pid in config.patients for t in data.by_patient[pid]]
    return sum(t.hazardous for t in traces) / len(traces)


@pytest.mark.benchmark(group="search")
def test_search_ci_vector(benchmark):
    """Wall time of one full CE search budget on the lock-step engine."""
    search = CrossEntropySearch(platform=CONFIG.platform,
                                patient_id=CONFIG.patients[0],
                                n_steps=CONFIG.n_steps,
                                population=32, iterations=6)
    result = benchmark(search.run, 0)
    assert result.n_hazardous >= 1


def test_search_beats_grid_per_patient():
    """The subsystem's acceptance bar, per patient: >= 3x the grid."""
    for pid in CONFIG.patients:
        grid = _grid_rate(CONFIG, pid)
        found = search_vs_grid(CONFIG, pid)
        ratio = found.hazards_per_simulation / grid
        print(f"\n{pid}: grid {grid:.3f}, search "
              f"{found.hazards_per_simulation:.3f} "
              f"({found.summary()}) -> {ratio:.2f}x")
        assert ratio >= EFFICIENCY_FLOOR, (
            f"search found only {ratio:.2f}x the grid's hazards per "
            f"simulation for patient {pid} (floor {EFFICIENCY_FLOOR}x)")


def test_search_experiment_overall_ratio():
    """The experiment table's ALL row clears the floor with margin."""
    result = run_search(CONFIG)
    print()
    print(result.text())
    overall = result.rows[-1]
    assert overall[0] == "ALL"
    assert overall[-1] >= EFFICIENCY_FLOOR


def test_search_deterministic_across_executors(monkeypatch):
    """Same seed, different executor shapes: identical findings."""
    kwargs = dict(platform=CONFIG.platform, patient_id=CONFIG.patients[0],
                  n_steps=CONFIG.n_steps, population=16, iterations=2)
    monkeypatch.setattr(repro.parallel, "LOCKSTEP_WIDTH", 1)
    reference = CrossEntropySearch(**kwargs).run(seed=3)
    for workers, width in ((1, 32), (2, 8)):
        monkeypatch.setattr(repro.parallel, "LOCKSTEP_WIDTH", width)
        other = CrossEntropySearch(workers=workers, **kwargs).run(seed=3)
        assert [f.label for f in other.findings] == \
            [f.label for f in reference.findings]
        assert other.n_simulations == reference.n_simulations
