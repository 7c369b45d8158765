"""Discrete-event simulation kernel.

Public surface:

* :class:`Simulator` — clock, scheduler, process spawner.
* :class:`EventHandle` — a cancellable scheduled callback.
* :class:`SimEvent`, :class:`Timeout` — waitable events for coroutine
  processes.
* :class:`Process` — a coroutine process, itself a joinable event.
* :class:`Tracer` sinks for structured tracing.
"""

from repro.sim.events import EventHandle, SimEvent, Timeout
from repro.sim.process import Process
from repro.sim.randomness import RandomStreams
from repro.sim.simulator import Simulator
from repro.sim.trace import RecordingSink, TraceRecord, Tracer

__all__ = [
    "EventHandle",
    "Process",
    "RandomStreams",
    "RecordingSink",
    "SimEvent",
    "Simulator",
    "Timeout",
    "TraceRecord",
    "Tracer",
]
