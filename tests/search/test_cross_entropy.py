"""Cross-entropy search: behaviour, budgets, and the determinism contract.

The determinism suite is the search-layer counterpart of the executor
parity tests: one reference run, then identical ``SearchResult`` contents
(elite sets, proposal trajectory, findings, element-wise identical
traces) for every ``LOCKSTEP_WIDTH`` x ``workers`` combination.
"""

import numpy as np
import pytest

import repro.parallel
from repro.search import CrossEntropySearch, ScenarioSpace
from tests.conftest import LOCKSTEP_WIDTHS, _assert_traces_equal

#: small-but-real search budget shared by this module's fixtures
N_STEPS = 60
POPULATION = 16
ITERATIONS = 3
SEED = 7


def _search(**overrides):
    kw = dict(platform="glucosym", patient_id="B", n_steps=N_STEPS,
              population=POPULATION, iterations=ITERATIONS,
              keep_traces=True)
    kw.update(overrides)
    return CrossEntropySearch(**kw)


@pytest.fixture(scope="module")
def reference_result():
    """The serial one-row-batch run every other configuration must
    match."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.parallel, "LOCKSTEP_WIDTH", 1)
        return _search(workers=1).run(seed=SEED)


def _assert_results_identical(a, b):
    assert a.n_simulations == b.n_simulations
    assert a.stop_reason == b.stop_reason
    assert len(a.iterations) == len(b.iterations)
    for sa, sb in zip(a.iterations, b.iterations):
        assert sa.elite_indices == sb.elite_indices
        assert sa.n_hazardous == sb.n_hazardous
        assert sa.best_score == sb.best_score
        assert sa.elite_threshold == sb.elite_threshold
        assert sa.mean_score == sb.mean_score
        assert np.array_equal(sa.family_probs, sb.family_probs)
        assert np.array_equal(sa.mean, sb.mean)
        assert np.array_equal(sa.std, sb.std)
    assert np.array_equal(a.proposal.family_probs, b.proposal.family_probs)
    assert np.array_equal(a.proposal.mean, b.proposal.mean)
    assert np.array_equal(a.proposal.std, b.proposal.std)
    assert len(a.findings) == len(b.findings)
    for fa, fb in zip(a.findings, b.findings):
        assert (fa.iteration, fa.index) == (fb.iteration, fb.index)
        assert fa.sample == fb.sample
        assert fa.score == fb.score
        _assert_traces_equal(fa.trace, fb.trace)


class TestDeterminism:
    # 8 divides the population exactly; the shared widths leave ragged
    # final batches
    @pytest.mark.parametrize("width", sorted(LOCKSTEP_WIDTHS + (8,)))
    @pytest.mark.parametrize("workers", [1, 2])
    def test_bit_identical_across_executors(self, reference_result,
                                            workers, width,
                                            set_lockstep_width):
        set_lockstep_width(width)
        result = _search(workers=workers).run(seed=SEED)
        _assert_results_identical(reference_result, result)

    def test_same_seed_same_result(self, reference_result):
        again = _search(workers=1).run(seed=SEED)
        _assert_results_identical(reference_result, again)

    def test_different_seed_different_population(self, reference_result):
        other = _search(workers=1).run(seed=SEED + 1)
        ref_labels = {f.label for f in reference_result.findings}
        other_labels = {f.label for f in other.findings}
        assert ref_labels != other_labels

    def test_result_records_configuration(self, reference_result):
        assert reference_result.platform == "glucosym"
        assert reference_result.patient_id == "B"
        assert reference_result.seed == SEED


class TestSearchBehaviour:
    def test_finds_hazards_and_attaches_traces(self, reference_result):
        assert reference_result.n_hazardous >= 1
        assert 0.0 < reference_result.hazards_per_simulation <= 1.0
        for finding in reference_result.findings:
            assert finding.trace is not None
            assert finding.score.hazardous
            assert finding.trace.label == finding.label
        best = reference_result.best
        assert best is not None
        assert best.score.score == max(
            f.score.score for f in reference_result.findings)

    def test_traces_dropped_by_default(self):
        result = _search(keep_traces=False, iterations=1).run(seed=SEED)
        assert all(f.trace is None for f in result.findings)

    def test_summary_mentions_counts_and_stop_reason(self, reference_result):
        text = reference_result.summary()
        assert str(reference_result.n_hazardous) in text
        assert reference_result.stop_reason in text

    def test_target_hazards_stops_early(self):
        result = _search(iterations=6, target_hazards=1).run(seed=SEED)
        assert result.stop_reason == "hazard target reached"
        assert result.n_hazardous >= 1
        assert len(result.iterations) < 6

    def test_simulation_budget_caps_total(self):
        result = _search(iterations=6,
                         max_simulations=POPULATION + 4).run(seed=SEED)
        assert result.stop_reason == "simulation budget"
        assert result.n_simulations <= POPULATION + 4
        # the truncated final generation still ran and was recorded
        assert result.iterations[-1].n_simulations == 4

    def test_elite_scores_dominate_population(self, reference_result):
        stats = reference_result.iterations[0]
        assert stats.best_score >= stats.elite_threshold >= stats.mean_score


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"population": 1}, {"elite_frac": 0.0}, {"elite_frac": 1.5},
        {"iterations": 0}, {"max_simulations": 0}, {"target_hazards": 0},
    ])
    def test_rejects_degenerate_budgets(self, kwargs):
        with pytest.raises(ValueError):
            _search(**kwargs)

    def test_rejects_horizon_mismatch(self):
        with pytest.raises(ValueError, match="horizon"):
            _search(space=ScenarioSpace(n_steps=N_STEPS + 10))
