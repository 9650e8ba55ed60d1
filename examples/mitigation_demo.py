"""Hazard mitigation (Algorithm 1) across attack types and both platforms.

For a handful of representative Table II attacks, runs each scenario
unprotected and protected (CAWT monitor trained on a small campaign + fixed
mitigation) and reports the glucose excursions and hazard outcomes.

Run:  python examples/mitigation_demo.py [glucosym|t1ds2013]
"""

import sys

from repro.core import FixedMitigator, cawt_monitor, learn_thresholds
from repro.fi import (
    CampaignConfig,
    FaultKind,
    FaultSpec,
    FaultTarget,
    InjectionScenario,
    generate_campaign,
)
from repro.metrics import render_table
from repro.simulation import run_campaign, run_fault_free

ATTACKS = (
    ("max_rate", FaultSpec(FaultKind.MAX, FaultTarget.RATE, 20, 30)),
    ("max_glucose", FaultSpec(FaultKind.MAX, FaultTarget.GLUCOSE, 20, 30)),
    ("max_iob", FaultSpec(FaultKind.MAX, FaultTarget.IOB, 20, 30)),
    ("truncate_iob", FaultSpec(FaultKind.TRUNCATE, FaultTarget.IOB, 20, 30)),
)


def main():
    platform = sys.argv[1] if len(sys.argv) > 1 else "glucosym"
    patient = {"glucosym": "B", "t1ds2013": "P01"}[platform]

    print(f"training CAWT thresholds for {platform}/{patient} ...")
    campaign = generate_campaign(CampaignConfig(stride=9))
    traces = run_campaign(platform, [patient], campaign)
    fault_free = run_fault_free(platform, [patient], (80.0, 120.0, 200.0))
    thresholds = learn_thresholds(traces + fault_free).thresholds

    attacks = [InjectionScenario(spec, init_glucose=140.0)
               for _, spec in ATTACKS]
    unprotected = run_campaign(platform, [patient], attacks)
    protected = run_campaign(platform, [patient], attacks,
                             monitor_factory=lambda pid: cawt_monitor(
                                 thresholds),
                             mitigator=FixedMitigator())
    rows = []
    for (name, _), plain, guarded in zip(ATTACKS, unprotected, protected):
        rows.append((
            name,
            f"{plain.true_bg.min():.0f}-{plain.true_bg.max():.0f}",
            "yes" if plain.hazardous else "no",
            f"{guarded.true_bg.min():.0f}-{guarded.true_bg.max():.0f}",
            "yes" if guarded.hazardous else "no",
            int(guarded.mitigated.sum()),
        ))
    print(render_table(("attack", "BG unprotected", "hazard",
                        "BG protected", "hazard", "corrections"), rows))


if __name__ == "__main__":
    main()
