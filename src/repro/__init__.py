"""Reproduction of "Data-driven Design of Context-aware Monitors for Hazard
Prediction in Artificial Pancreas Systems" (Zhou et al., DSN 2021).

Public API map
--------------
- :mod:`repro.stl` — bounded-time STL engine (AST, semantics, parser);
- :mod:`repro.patients` — IVP (Glucosym) and Dalla Man S2013 (UVA-Padova)
  virtual patients, CGM sensor, insulin pump;
- :mod:`repro.controllers` — OpenAPS (oref0) port, Basal-Bolus, IOB;
- :mod:`repro.simulation` — closed loop, scenarios, traces, campaign runner,
  offline monitor replay;
- :mod:`repro.fi` — fault models (Table II), injector, 882-scenario campaign;
- :mod:`repro.hazards` — Kovatchev risk index (Eq. 5), hazard labeling;
- :mod:`repro.core` — the paper's contribution: safety-context specification
  (Table I rules), TMEE threshold learning (Eq. 3/4), CAWT/CAWOT monitors,
  Algorithm 1 mitigation;
- :mod:`repro.baselines` — Guideline (Table III) and MPC (Eq. 6) monitors;
- :mod:`repro.ml` — from-scratch DT / MLP / LSTM baseline monitors;
- :mod:`repro.metrics` — Section V-D metrics;
- :mod:`repro.experiments` — one module per table/figure of the evaluation.
"""

__version__ = "1.0.0"

__all__ = [
    "stl",
    "patients",
    "controllers",
    "simulation",
    "fi",
    "hazards",
    "core",
    "baselines",
    "ml",
    "metrics",
    "experiments",
]
