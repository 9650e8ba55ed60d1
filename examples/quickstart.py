"""Quickstart: a fault attack on the closed loop, caught by the monitor.

Runs the OpenAPS + Glucosym platform three times from the same start:

1. fault-free (the controller holds glucose at target);
2. with a ``maximize_rate`` attack on the commanded insulin (severe
   hypoglycemia develops — an H1 hazard);
3. the same attack with the context-aware monitor and Algorithm 1
   mitigation in the loop.

Run:  python examples/quickstart.py
"""

from repro.core import FixedMitigator, cawot_monitor
from repro.fi import FaultKind, FaultSpec, FaultTarget, InjectionScenario
from repro.simulation import run_campaign, run_fault_free


def sparkline(values, lo=40.0, hi=300.0, width=75):
    """Tiny ASCII glucose strip chart."""
    blocks = " .:-=+*#%@"
    step = max(len(values) // width, 1)
    out = []
    for i in range(0, len(values), step):
        v = values[i]
        idx = int((min(max(v, lo), hi) - lo) / (hi - lo) * (len(blocks) - 1))
        out.append(blocks[idx])
    return "".join(out)


def describe(tag, trace):
    label = trace.hazard_label
    hazard = (f"hazard {label.first_type.name} at t={label.hazard_time():.0f} min"
              if label.any_hazard else "no hazard")
    print(f"{tag:22s} BG [{trace.true_bg.min():5.0f}, {trace.true_bg.max():5.0f}] "
          f"mg/dL  alerts={int(trace.alert.sum()):3d}  {hazard}")
    print(f"{'':22s} {sparkline(trace.true_bg)}")


def main():
    attack = [InjectionScenario(
        FaultSpec(kind=FaultKind.MAX, target=FaultTarget.RATE,
                  start_step=20, duration_steps=30), init_glucose=120.0)]

    describe("fault-free", run_fault_free("glucosym", ["B"], (120.0,))[0])
    describe("max_rate attack", run_campaign("glucosym", ["B"], attack)[0])
    guarded = run_campaign("glucosym", ["B"], attack,
                           monitor_factory=lambda pid: cawot_monitor(),
                           mitigator=FixedMitigator())
    describe("attack + monitor", guarded[0])


if __name__ == "__main__":
    main()
