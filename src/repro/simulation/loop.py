"""The closed-loop simulation engine (Fig. 5a of the paper).

One :class:`ClosedLoop` wires together a virtual patient, a CGM sensor, an
APS controller, an insulin pump and — optionally — a fault injector, a safety
monitor and a mitigator.  Per control cycle the data flow is::

    patient --(interstitial glucose)--> sensor --> [FI on input] -->
    controller --(rate, bolus)--> [FI on output] -->
    monitor (context inference, UCA detection) --> [mitigation] -->
    pump --> patient

matching the paper's architecture: the monitor taps the *fault-free* sensor
stream and the *post-fault* command (it wraps the controller), and fault
injection perturbs only the controller's view/outputs — never the plant or
the ground-truth labels.

This loop is the single-run API (``make_loop(...).run``) and the parity
*reference* for the lock-step engine (:mod:`repro.simulation.vector`),
which every campaign executor runs: every batched path — plain,
monitored and mitigated alike — must reproduce this file's per-cycle
arithmetic element-wise, so any semantic change here must be transcribed
there (the parity test suites enforce it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..controllers import Controller, IOBCalculator, classify_action
from ..core.context import ContextVector
from ..core.mitigation import Mitigator
from ..core.monitor import NO_ALERT, SafetyMonitor
from ..fi import FaultInjector
from ..patients import CGMSensor, InsulinPump, PatientModel
from .scenario import Scenario
from .trace import SimulationTrace, TraceRecorder

__all__ = ["ClosedLoop"]


@dataclass
class ClosedLoop:
    """A complete closed-loop APS simulation.

    Attributes
    ----------
    patient:
        The virtual patient (plant).
    controller:
        The APS controller under test.
    platform:
        Platform tag recorded in traces (``glucosym``/``t1ds2013``).
    sensor, pump:
        Sensor/actuator models; default to ideal sensor and a standard pump.
    injector:
        Optional fault injector for this run.
    monitor:
        Optional safety monitor.
    mitigator:
        Optional mitigation strategy; applied only when a monitor alerts.
    """

    patient: PatientModel
    controller: Controller
    platform: str = "custom"
    sensor: Optional[CGMSensor] = None
    pump: Optional[InsulinPump] = None
    injector: Optional[FaultInjector] = None
    monitor: Optional[SafetyMonitor] = None
    mitigator: Optional[Mitigator] = None

    def __post_init__(self):
        if self.sensor is None:
            self.sensor = CGMSensor()
        if self.pump is None:
            self.pump = InsulinPump()

    def run(self, scenario: Scenario) -> SimulationTrace:
        """Execute *scenario* and return the full trace."""
        self.patient.reset(scenario.init_glucose)
        self.controller.reset()
        self.controller.iob_tamper = None
        self.sensor.reset()
        self.pump.reset()
        if self.injector is not None:
            self.injector.reset()
        if self.monitor is not None:
            self.monitor.reset()
        if self.mitigator is not None:
            self.mitigator.reset()
        for meal in scenario.meals:
            self.patient.add_meal(meal)

        # monitor-side context IOB uses the net (above-scheduled-basal)
        # convention, matching the controller's own IOB semantics
        iob_calc = IOBCalculator(basal_offset=self.controller.scheduled_basal)
        recorder = TraceRecorder(
            platform=self.platform, patient_id=self._patient_id(),
            label=scenario.label, dt=scenario.dt,
            fault=self.injector.spec if self.injector else None,
            n_steps=scenario.n_steps)

        prev_cgm = None
        prev_iob = 0.0
        for step in range(scenario.n_steps):
            t = step * scenario.dt
            true_bg = self.patient.glucose
            cgm = self.sensor.measure(self.patient.sensor_glucose)

            # controller (input and internal state possibly corrupted by FI)
            reading = cgm
            if self.injector is not None:
                reading = self.injector.corrupt_reading(cgm, step)

                # default args bind the current step and injector
                def tamper(iob, s=step, injector=self.injector):
                    return injector.corrupt_iob(iob, s)

                self.controller.iob_tamper = tamper
            decision = self.controller.decide(reading, t)
            cmd_rate, cmd_bolus = decision.basal, decision.bolus
            if self.injector is not None:
                cmd_rate, cmd_bolus = self.injector.corrupt_command(
                    cmd_rate, cmd_bolus, step)
            action = classify_action(cmd_rate, cmd_bolus,
                                     self.controller.scheduled_basal)

            # monitor context: fault-free sensor view + post-fault command
            iob = iob_calc.iob(t)
            iob_rate = (iob - prev_iob) / scenario.dt if step > 0 else 0.0
            if self.monitor is not None:
                bg_rate = 0.0 if prev_cgm is None else (cgm - prev_cgm) / scenario.dt
                ctx = ContextVector(t=t, bg=cgm, bg_rate=bg_rate, iob=iob,
                                    iob_rate=iob_rate, rate=cmd_rate,
                                    bolus=cmd_bolus, action=action)
                verdict = self.monitor.observe(ctx)
            else:
                ctx = None
                verdict = NO_ALERT

            # mitigation (Algorithm 1): replace unsafe commands
            final_rate, final_bolus = cmd_rate, cmd_bolus
            mitigated = False
            if self.mitigator is not None and verdict.alert:
                final_rate, final_bolus = self.mitigator.correct(verdict, ctx)
                mitigated = (final_rate, final_bolus) != (cmd_rate, cmd_bolus)

            # actuation
            delivered_rate = self.pump.command_basal(final_rate)
            delivered_bolus = self.pump.command_bolus(final_bolus)
            self.pump.record_delivery(delivered_rate, delivered_bolus, scenario.dt)
            self.patient.step(delivered_rate, delivered_bolus, scenario.dt)
            self.controller.notify_delivery(delivered_rate, delivered_bolus,
                                            t, scenario.dt)
            iob_calc.record(delivered_rate, delivered_bolus, t, scenario.dt)

            recorder.append(
                t=t, true_bg=true_bg, cgm=cgm, reading=reading,
                ctrl_rate=decision.basal, ctrl_bolus=decision.bolus,
                cmd_rate=cmd_rate, cmd_bolus=cmd_bolus, action=int(action),
                iob=iob, iob_rate=iob_rate,
                final_rate=final_rate, final_bolus=final_bolus,
                delivered_rate=delivered_rate, delivered_bolus=delivered_bolus,
                alert=verdict.alert,
                alert_hazard=0 if verdict.hazard is None else int(verdict.hazard),
                mitigated=mitigated,
            )
            prev_cgm = cgm
            prev_iob = iob
        return recorder.finish()

    def _patient_id(self) -> str:
        name = self.patient.name
        return name.split("/", 1)[1] if "/" in name else name
