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

from repro.errors import ProcessError
from repro.sim.events import SimEvent


class Process(SimEvent):
    """A running coroutine; also a :class:`SimEvent` that triggers on exit.

    The process *succeeds* with the generator's return value when the
    generator finishes, and *fails* with the exception if the generator
    raises.  Other processes may therefore ``yield`` a process to join it.

    One step is one call, :meth:`_resume`: what the queue calls for a
    target that had triggered already and, as the process's ``__call__``,
    what a yielded event calls back when it triggers.  The event holds the
    process itself, so a wait allocates no bound method (DESIGN §14
    rule 6).
    """

    __slots__ = ("generator", "_waiting_on", "label")

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
        # First resumption happens as a scheduled event so that spawning
        # inside another process does not reenter user code synchronously.
        sim.post(sim.now, self._resume, _STARTED)

    # Lifecycle -----------------------------------------------------------
    @property
    def alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._done

    def kill(self) -> None:
        """Terminate the process without running any of its cleanup code
        beyond ``GeneratorExit`` handling (i.e. ``generator.close()``)."""
        if self._done:
            return
        if self._waiting_on is not None:
            self._waiting_on.discard_callback(self)
            self._waiting_on = None
        self.generator.close()
        self.succeed(None)

    # Internal stepping ----------------------------------------------------
    def _resume(self, event: SimEvent) -> None:
        """Send ``event``'s outcome into the generator and wait on what it
        yields next."""
        if self._done:
            return  # killed while this resume was queued
        try:
            exc = event._exc
            if exc is None:
                target = self.generator.send(event._value)
            else:
                target = self.generator.throw(exc)
        except StopIteration as stop:
            # A finished process waits on nothing: ``Host.processes`` keeps
            # finished ones until it prunes, and the last event can hold a
            # socket.
            self._waiting_on = None
            self.succeed(stop.value)
            return
        except BaseException as failure:  # noqa: BLE001 - propagate to joiners
            self._waiting_on = None
            if not self._callbacks:
                # Nobody is joining this process: surface the crash instead
                # of swallowing it, per "errors should never pass silently".
                self.succeed(None)
                raise
            self.fail(failure)
            return
        if not isinstance(target, SimEvent):
            self._waiting_on = None
            self.generator.close()
            self.succeed(None)
            raise ProcessError(
                f"process {self.label!r} yielded {target!r}; processes must "
                "yield SimEvent instances"
            )
        self._waiting_on = target
        if target._done:
            # Resume via the scheduler rather than synchronously: a chain
            # of already-ready events (e.g. reads from a full buffer) must
            # not recurse one Python frame per step, and a synchronous
            # resume would change the re-entrancy order.
            sim = self.sim
            sim.post(sim.now, self._resume, target)
        elif target._callbacks is None:
            target._callbacks = self
        else:
            target.add_callback(self)

    __call__ = _resume

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Process {self.label!r} {'done' if self._done else 'alive'}>"


#: The already-succeeded event (value ``None``) a process's first step is
#: resumed with: ``generator.send(None)`` starts a generator.
_STARTED = SimEvent(None, "start").succeed()
