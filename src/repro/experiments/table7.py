"""Table VII — hazard mitigation with Algorithm 1.

Re-runs the fault-injection campaign with each monitor wired to the fixed
mitigation strategy (H1 -> zero insulin, H2 -> fixed maximum insulin) and
compares against the unmonitored twin runs: recovery rate, number of new
hazards introduced by false-alarm mitigation, and the Eq. 9 average risk.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..baselines import MPCMonitor
from ..core import FixedMitigator, Mitigator, cawt_monitor
from ..fi import CampaignConfig, generate_campaign
from ..metrics import mitigation_outcome
from ..simulation import run_campaign
from .config import ExperimentConfig
from .data import cawt_full_thresholds, ml_monitors, platform_data
from .render import ExperimentResult

__all__ = ["run_table7"]

PAPER_TABLE7 = {
    "CAWT": (0.54, 8, 0.02),
    "DT": (0.403, 227, 0.76),
    "MLP": (0.39, 177, 0.68),
    "MPC": (0.043, 123, 0.22),
}


def run_table7(config: ExperimentConfig, max_rate: float = 5.0,
               mitigator: Optional[Mitigator] = None) -> ExperimentResult:
    """Mitigated campaign per monitor; *mitigator* defaults to the paper's
    :class:`~repro.core.FixedMitigator` (pass e.g. a
    :class:`~repro.core.PredictiveMitigator` to benchmark another
    strategy family in the same harness).  Honours ``config.workers``;
    mitigated runs batch in lock step like any others, so the monitor
    factories only look up what was learned or trained up front."""
    data = platform_data(config)
    campaign = generate_campaign(CampaignConfig(stride=config.stride))
    if mitigator is None:
        mitigator = FixedMitigator(max_rate=max_rate)

    ml = ml_monitors(data)
    # each patient's CAWT thresholds are learned once, here: the lock-step
    # engine calls a factory once per patient per batch
    thresholds = {pid: cawt_full_thresholds(data, pid)
                  for pid in config.patients}
    monitor_factories: Dict[str, object] = {
        "CAWT": lambda pid: cawt_monitor(thresholds[pid]),
        "DT": lambda pid: ml["DT"],
        "MLP": lambda pid: ml["MLP"],
        "MPC": lambda pid: MPCMonitor(horizon_steps=config.mpc_horizon),
    }

    result = ExperimentResult(
        title=f"Table VII — mitigation performance ({config.platform})",
        headers=("monitor", "recovery_rate", "new_hazards", "avg_risk",
                 "baseline_hazards"))
    for name, factory in monitor_factories.items():
        mitigated = run_campaign(config.platform, config.patients, campaign,
                                 monitor_factory=factory, mitigator=mitigator,
                                 n_steps=config.n_steps,
                                 workers=config.workers)
        outcome = mitigation_outcome(name, data.traces, mitigated)
        result.rows.append((name, outcome.recovery_rate, outcome.new_hazards,
                            outcome.average_risk, outcome.baseline_hazards))

    for monitor, (recovery, new_hazards, risk) in PAPER_TABLE7.items():
        result.notes.append(
            f"paper {monitor}: recovery {recovery:.1%}, "
            f"{new_hazards} new hazards, avg risk {risk}")
    return result
