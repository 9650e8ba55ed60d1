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

import repro.parallel
from repro.experiments import ExperimentConfig
from repro.simulation import run_campaign

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
    """The grid with every run alone in a lock-step batch of one
    (``LOCKSTEP_WIDTH = 1``) — the reference the production width is timed
    and checked against (traces in ``run_campaign`` order)."""
    width = repro.parallel.LOCKSTEP_WIDTH
    repro.parallel.LOCKSTEP_WIDTH = 1
    try:
        return run_campaign(platform, patients, scenarios,
                            monitor_factory=monitor_factory,
                            mitigator=mitigator, n_steps=n_steps)
    finally:
        repro.parallel.LOCKSTEP_WIDTH = width
