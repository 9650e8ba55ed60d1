"""Rare-event scenario search vs. the paper's fixed fault grid.

The paper's evaluation *enumerates* hazards: every patient runs the full
882-injection grid and the hazardous cells are counted afterwards.  The
cross-entropy search (:mod:`repro.search`) *hunts* them: it spends the
same simulation machinery adaptively, steering each generation toward the
failure boundary.  This experiment pits the two against each other on a
per-patient basis and reports the discovery efficiency —
hazards-found-per-simulation — of both, plus their ratio (the number the
benchmark gate floors at 3x).

The grid baseline reuses the campaign traces the other experiments
already share (:func:`~repro.experiments.data.platform_data`), so at
``ci`` scale the whole comparison runs in seconds.
"""

from __future__ import annotations

from ..search import CrossEntropySearch
from .config import ExperimentConfig
from .data import platform_data
from .render import ExperimentResult

__all__ = ["run_search", "search_vs_grid"]

#: search budget per patient: at most this many generations ...
SEARCH_ITERATIONS = 6
#: ... of this many sampled scenarios each
SEARCH_POPULATION = 32


def search_vs_grid(config: ExperimentConfig, patient_id: str,
                   seed: int = 0):
    """Run the CE search for one patient; returns its ``SearchResult``.

    The per-patient seed is derived from the experiment seed and the
    cohort position, so multi-patient experiments don't reuse one stream.
    """
    patients = list(config.patients)
    search = CrossEntropySearch(platform=config.platform,
                                patient_id=patient_id,
                                n_steps=config.n_steps,
                                population=SEARCH_POPULATION,
                                iterations=SEARCH_ITERATIONS,
                                workers=config.workers)
    return search.run(seed=seed * len(patients) + patients.index(patient_id))


def run_search(config: ExperimentConfig, seed: int = 0) -> ExperimentResult:
    """Hazards-found-per-simulation: adaptive search vs. the fixed grid."""
    data = platform_data(config)
    result = ExperimentResult(
        title=f"Scenario search — hazards per simulation vs. the fixed "
              f"grid ({config.platform})",
        headers=("patient", "grid_sims", "grid_hazards", "grid_rate",
                 "search_sims", "search_hazards", "search_rate", "ratio"))

    grid_total = [0, 0]
    search_total = [0, 0]
    for pid in config.patients:
        grid_traces = data.by_patient[pid]
        grid_hazards = sum(t.hazardous for t in grid_traces)
        grid_rate = grid_hazards / len(grid_traces)

        found = search_vs_grid(config, pid, seed)
        rate = found.hazards_per_simulation
        ratio = rate / grid_rate if grid_rate else float("inf")
        result.rows.append((pid, len(grid_traces), grid_hazards,
                            round(grid_rate, 3), found.n_simulations,
                            found.n_hazardous, round(rate, 3),
                            round(ratio, 2)))
        grid_total[0] += grid_hazards
        grid_total[1] += len(grid_traces)
        search_total[0] += found.n_hazardous
        search_total[1] += found.n_simulations
        best = found.best
        if best is not None:
            result.notes.append(
                f"{pid}: best hazard {best.label} (score "
                f"{best.score.score:.1f}, TTH "
                f"{best.score.time_to_hazard:.0f} min), stopped on "
                f"{found.stop_reason}")

    grid_rate = grid_total[0] / grid_total[1] if grid_total[1] else 0.0
    search_rate = (search_total[0] / search_total[1]
                   if search_total[1] else 0.0)
    overall = search_rate / grid_rate if grid_rate else float("inf")
    result.rows.append(("ALL", grid_total[1], grid_total[0],
                        round(grid_rate, 3), search_total[1],
                        search_total[0], round(search_rate, 3),
                        round(overall, 2)))
    result.notes.append(
        "grid = the paper's fixed fault-injection campaign at this "
        "preset's stride; search = cross-entropy over the continuous "
        "fault/sensor-drift/meal scenario space (repro.search), same "
        "vector kernel underneath")
    return result
