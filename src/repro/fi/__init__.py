"""Fault models and the campaign generator (Table II); the lock-step
engine applies the faults (:mod:`repro.simulation.vector`)."""

from .campaign import (
    CAMPAIGN_FAULTS,
    CampaignConfig,
    INITIAL_GLUCOSE_VALUES,
    InjectionScenario,
    TIMING_CHOICES,
    generate_campaign,
)
from .faults import (FaultKind, FaultSpec, FaultTarget, MAX_SCALE_FACTOR,
                     VARIABLE_RANGES, magnitude_bounds)

__all__ = [
    "MAX_SCALE_FACTOR",
    "magnitude_bounds",
    "CAMPAIGN_FAULTS",
    "CampaignConfig",
    "INITIAL_GLUCOSE_VALUES",
    "InjectionScenario",
    "TIMING_CHOICES",
    "generate_campaign",
    "FaultKind",
    "FaultSpec",
    "FaultTarget",
    "VARIABLE_RANGES",
]
