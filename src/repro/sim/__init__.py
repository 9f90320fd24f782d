"""Discrete-event simulation substrate.

This package provides the event-driven clock every other subsystem hangs
off: the :class:`~repro.sim.engine.Simulator` core, periodic-task helpers,
and trace-recording utilities used to collect the time series that the
paper's figures are built from.  :class:`~repro.sim.runner.SessionRunner`
drives sessions over that substrate, skipping the ticks
:mod:`~repro.sim.fastforward` proves inert (see
``docs/architecture.md``).
"""

from .engine import EventHandle, PeriodicTask, Simulator
from .tracing import EventLog, StepSeries, TimeSeries

__all__ = [
    "EventHandle",
    "EventLog",
    "PeriodicTask",
    "Simulator",
    "StepSeries",
    "TimeSeries",
]
