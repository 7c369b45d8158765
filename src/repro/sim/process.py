"""Coroutine processes layered over the event kernel.

A *process* is a Python generator that ``yield``s
:class:`~repro.sim.events.SimEvent` objects.  Yielding suspends the process
until the event triggers; the event's value is sent back into the generator
(or its failure exception is raised at the yield point).  This mirrors the
SimPy programming model while keeping the kernel a plain callback scheduler.

Example::

    def client(sim, sock):
        yield sock.connect(("10.0.0.1", 80))
        yield sock.send_all(b"hello")
        reply = yield sock.recv_exactly(5)
        sock.close()

    sim.spawn(client(sim, sock))
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.errors import InterruptError, ProcessError
from repro.sim.events import SimEvent


class Process(SimEvent):
    """A running coroutine; also a :class:`SimEvent` that triggers on exit.

    The process *succeeds* with the generator's return value when the
    generator finishes, and *fails* with the exception if the generator
    raises.  Other processes may therefore ``yield`` a process to join it.
    """

    __slots__ = ("generator", "_waiting_on", "_started", "label")

    def __init__(
        self,
        sim: Any,
        generator: Generator[SimEvent, Any, Any],
        label: str = "",
    ) -> None:
        super().__init__(sim, name=label or getattr(generator, "__name__", "process"))
        if not hasattr(generator, "send"):
            raise ProcessError(f"spawn() requires a generator, got {generator!r}")
        self.generator = generator
        self.label = self.name
        self._waiting_on: Optional[SimEvent] = None
        self._started = False
        # First resumption happens as a scheduled event so that spawning
        # inside another process does not reenter user code synchronously.
        sim.post(sim.now, self._resume_with, None, None)

    # Lifecycle -----------------------------------------------------------
    @property
    def alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._done

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`InterruptError` inside the process at its yield.

        No-op if the process already finished.  A process blocked on an
        event is detached from it; the abandoned event may still trigger
        later with no effect on this process.
        """
        if self.triggered:
            return
        if self._waiting_on is not None:
            self._waiting_on.discard_callback(self._event_done)
            self._waiting_on = None
        self.sim.post(self.sim.now, self._resume_with, None, InterruptError(cause))

    def kill(self) -> None:
        """Terminate the process without running any of its cleanup code
        beyond ``GeneratorExit`` handling (i.e. ``generator.close()``)."""
        if self.triggered:
            return
        if self._waiting_on is not None:
            self._waiting_on.discard_callback(self._event_done)
            self._waiting_on = None
        self.generator.close()
        self.succeed(None)

    # Internal stepping ----------------------------------------------------
    def _event_done(self, event: SimEvent) -> None:
        self._waiting_on = None
        if event.ok:
            self._resume_with(event._value, None)
        else:
            self._resume_with(None, event.exception)

    def _resume_with(self, value: Any, exc: Optional[BaseException]) -> None:
        if self.triggered:
            return
        self._started = True
        try:
            if exc is not None:
                target = self.generator.throw(exc)
            else:
                target = self.generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as failure:  # noqa: BLE001 - propagate to joiners
            if not self._callbacks:
                # Nobody is joining this process: surface the crash instead
                # of swallowing it, per "errors should never pass silently".
                self.succeed(None)
                raise
            self.fail(failure)
            return
        if not isinstance(target, SimEvent):
            self.generator.close()
            self.succeed(None)
            raise ProcessError(
                f"process {self.label!r} yielded {target!r}; processes must "
                "yield SimEvent instances"
            )
        self._waiting_on = target
        if target.triggered:
            # Resume via the scheduler rather than synchronously: a chain
            # of already-ready events (e.g. reads from a full buffer) must
            # not recurse one Python frame per step.
            sim = self.sim
            sim.post(sim.now, self._event_done, target)
        else:
            target.add_callback(self._event_done)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.triggered else ("running" if self._started else "new")
        return f"<Process {self.label!r} {state}>"


class Semaphore:
    """A counting semaphore for coroutine processes.

    ``yield sem.acquire()`` suspends until a unit is available.
    """

    def __init__(self, sim: Any, value: int = 1) -> None:
        if value < 0:
            raise ProcessError(f"semaphore initial value must be >= 0, got {value}")
        self.sim = sim
        self._value = value
        self._waiters: list[SimEvent] = []

    @property
    def value(self) -> int:
        return self._value

    def acquire(self) -> SimEvent:
        event = SimEvent(self.sim, "sem.acquire")
        if self._value > 0:
            self._value -= 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        if self._waiters:
            self._waiters.pop(0).succeed()
        else:
            self._value += 1


class Channel:
    """An unbounded FIFO message channel between processes.

    ``put`` never blocks; ``yield channel.get()`` suspends until an item is
    available.  Used for app-level coordination in tests and examples.
    """

    def __init__(self, sim: Any, name: str = "channel") -> None:
        self.sim = sim
        self.name = name
        self._items: list[Any] = []
        self._getters: list[SimEvent] = []

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.pop(0).succeed(item)
        else:
            self._items.append(item)

    def get(self) -> SimEvent:
        event = SimEvent(self.sim, f"{self.name}.get")
        if self._items:
            event.succeed(self._items.pop(0))
        else:
            self._getters.append(event)
        return event
