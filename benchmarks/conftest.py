"""Shared benchmark configuration.

Every benchmark regenerates one table or figure of the paper at a
configurable scale.  Set ``REPRO_SCALE`` to ``smoke`` (default), ``small``,
``medium`` or ``full`` (the paper's 882 injections x 10 patients — slow).
Simulation data is cached per scale across the whole benchmark session, so
the first benchmark pays the campaign cost and the rest replay it.

Run with ``pytest benchmarks/ --benchmark-only -s`` to also see the
reproduced tables next to the paper's values.
"""

import os

import pytest

from repro.experiments import ExperimentConfig
from repro.fi import FaultInjector
from repro.simulation import Scenario, make_loop

SCALE = os.environ.get("REPRO_SCALE", "smoke")


@pytest.fixture(scope="session")
def glucosym_config() -> ExperimentConfig:
    return ExperimentConfig.preset(SCALE, platform="glucosym")


@pytest.fixture(scope="session")
def t1d_config() -> ExperimentConfig:
    return ExperimentConfig.preset(SCALE, platform="t1ds2013")


def show(result) -> None:
    """Print a reproduced table (visible with ``-s``)."""
    print()
    print(result.text())


def reference_campaign(platform, patients, scenarios, n_steps,
                       monitor_factory=None, mitigator=None):
    """The grid through the single-run ``make_loop(...).run``, one loop per
    patient — the reference the lock-step engine is timed and checked
    against (traces in ``run_campaign`` order)."""
    traces = []
    for pid in patients:
        loop = make_loop(platform, pid, mitigator=mitigator,
                         monitor=monitor_factory(pid) if monitor_factory
                         else None)
        for scenario in scenarios:
            loop.injector = (FaultInjector(scenario.fault)
                             if scenario.fault is not None else None)
            traces.append(loop.run(Scenario(
                init_glucose=scenario.init_glucose, n_steps=n_steps,
                label=scenario.label)))
    return traces
