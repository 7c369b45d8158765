"""The :class:`Simulator` facade tying clock, scheduler, processes and RNG
together.

A single :class:`Simulator` instance owns all mutable simulation state; all
components (hosts, links, protocols) hold a reference to it.  Time is a
float in seconds.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.errors import SimulationError
from repro.sim.events import EventHandle, SimEvent, Timeout
from repro.obs.registry import MetricsRegistry
from repro.sim.process import Process
from repro.sim.randomness import RandomStreams
from repro.sim.scheduler import Scheduler
from repro.sim.trace import Tracer


class Simulator:
    """Discrete-event simulation kernel.

    Typical use::

        sim = Simulator(seed=1)
        sim.spawn(my_process(sim))
        sim.run(until=60.0)
    """

    #: Current simulated time in seconds: a plain attribute that only the
    #: scheduler's dispatch loop writes (``Scheduler(clock=self)``).
    now: float

    def __init__(self, seed: int = 0) -> None:
        self._scheduler = Scheduler(self)
        #: ``post(time, callback, *args)``: queue an uncancellable callback
        #: at absolute ``time`` (:meth:`Scheduler.post`), bound once so a
        #: post is one Python call.  Callers that keep no handle use it.
        self.post = self._scheduler.post
        #: ``arm(time, token, fn)`` / ``retire(token)``: a token's one
        #: queue entry (:meth:`Scheduler.arm`), bound the same way.
        self.arm = self._scheduler.arm
        self.retire = self._scheduler.retire
        self.random = RandomStreams(seed)
        self.trace = Tracer()
        self.metrics = MetricsRegistry()

    # Time ----------------------------------------------------------------
    @property
    def events_executed(self) -> int:
        return self._scheduler.executed_count

    # Scheduling ----------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self._scheduler.schedule_after(delay, callback, args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Run ``callback(*args)`` at absolute simulated ``time``."""
        return self._scheduler.schedule_at(time, callback, args)

    # Events --------------------------------------------------------------
    def event(self, name: str = "") -> SimEvent:
        """Create an untriggered waitable event."""
        return SimEvent(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that succeeds after ``delay`` seconds."""
        event = Timeout(self, delay)  # validates delay >= 0
        self.post(self.now + delay, event.succeed, value)
        return event

    # Processes -----------------------------------------------------------
    def spawn(
        self, generator: Generator[SimEvent, Any, Any], label: str = ""
    ) -> Process:
        """Start a coroutine process; returns its handle (joinable event)."""
        return Process(self, generator, label)

    # Execution -----------------------------------------------------------
    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> None:
        """Run events until the queue is empty, ``until`` is reached, or
        ``max_events`` callbacks have executed."""
        self._scheduler.run_until(until=until, max_events=max_events)

    def run_until_complete(
        self, process: Process, deadline: Optional[float] = None
    ) -> Any:
        """Run the simulation until ``process`` finishes; return its value.

        Raises :class:`SimulationError` if the event queue drains or the
        deadline passes while the process is still alive (usually a sign of
        a deadlock in the scenario under test).

        The stop conditions are per event — stop the instant ``process``
        triggers, and run at most one event that leaves ``now >=
        deadline`` — and are enforced inside the scheduler's dispatch loop
        via ``watch``.
        """
        scheduler = self._scheduler
        while not process._done:
            if deadline is not None and self.now >= deadline:
                raise SimulationError(
                    f"deadline {deadline}s passed; process {process.label!r} "
                    "still running"
                )
            scheduler.run_until(until=deadline, watch=process)
            if process._done:
                break
            if deadline is not None and self.now >= deadline:
                continue  # the deadline check at the top of the loop raises
            if scheduler.peek_time() is None:
                raise SimulationError(
                    f"event queue empty but process {process.label!r} never "
                    "finished (deadlock?)"
                )
            # The next live event is past the deadline: advance to it and
            # let the check at the top of the loop raise.
            scheduler.run_until(until=deadline)
        return process.value

    def step(self) -> bool:
        """Execute a single event; returns False when the queue is empty."""
        return self._scheduler.run_next()
