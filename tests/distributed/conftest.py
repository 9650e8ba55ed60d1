"""Fixtures for the distributed campaign battery.

One tiny-but-real campaign plan (6 faulted patient-B runs, 40 steps) is
simulated exactly once per session into a single-box reference store;
every parity assertion in this package compares against that directory.
Keeping the plan this small keeps the whole battery — which re-executes
it many times through subprocess workers — inside tier-1 wall-clock.
"""

import os

import pytest

from repro.distributed import save_plan
from repro.fi import CampaignConfig, generate_campaign
from repro.simulation import CampaignExecutor, CampaignStoreWriter
from repro.simulation.executor import plan_campaign

FOLDS = 2


def small_plan():
    """6-run glucosym patient-B plan, 40 steps (module-level so property
    tests can rebuild it without the fixture machinery)."""
    config = CampaignConfig(init_glucose_values=(120.0,),
                            timing_choices=((0, 24),))
    return plan_campaign("glucosym", ["B"], generate_campaign(config)[:6],
                         n_steps=40)


@pytest.fixture(scope="session")
def plan():
    return small_plan()


@pytest.fixture(scope="session")
def plan_path(plan, tmp_path_factory):
    """The plan serialized to disk, as workers receive it."""
    path = tmp_path_factory.mktemp("plan") / "plan.json"
    return save_plan(plan, str(path))


@pytest.fixture(scope="session")
def reference_store(plan, tmp_path_factory):
    """Single-box reference dataset: the byte-identity target."""
    directory = str(tmp_path_factory.mktemp("reference") / "store")
    with CampaignStoreWriter(directory, plan.platform, plan.n_steps,
                             folds=FOLDS) as writer:
        CampaignExecutor().run(plan, sink=writer)
    return directory


@pytest.fixture(scope="session")
def reference_manifest_bytes(reference_store):
    with open(os.path.join(reference_store, "manifest.json"), "rb") as fh:
        return fh.read()
