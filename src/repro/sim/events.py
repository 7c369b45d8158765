"""Event primitives for the discrete-event kernel.

Two kinds of objects live here:

* :class:`EventHandle` — the token returned by ``Simulator.schedule`` which
  allows a pending callback to be cancelled (a ``RestartableTimer`` or a
  ``TimeWait`` record is its own token: ``Scheduler.arm``).
* :class:`SimEvent` — a waitable, one-shot event in the style of SimPy,
  and :class:`Timeout`, one that a delay triggers.  Coroutine processes
  ``yield`` a :class:`SimEvent` to suspend until the event is triggered
  with :meth:`SimEvent.succeed` or :meth:`SimEvent.fail`.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Union

from repro.errors import SimulationError


class EventHandle:
    """A scheduled callback that can be cancelled before it fires.

    The token ``Scheduler.schedule_at`` arms and returns, made only for
    callers that keep it (``Simulator.post`` makes none); user code only
    cancels it.  The handle owns the callback and its arguments, so a
    cancel drops them while the dead entry ``(time, seq, handle,
    EventHandle._fire, None)`` waits in the heap to be popped.  ``seq`` is
    the live entry's, or -1 once fired or cancelled (the scheduler's token
    protocol); the scheduler reference stays for :meth:`cancel`.
    """

    __slots__ = ("time", "seq", "callback", "args", "_cancelled", "_sched")

    def __init__(self, time: float, callback: Callable[..., Any], args: tuple, sched: Any) -> None:
        self.time = time
        self.seq = -1
        self.callback = callback
        self.args = args
        self._cancelled = False
        self._sched = sched

    def _fire(self) -> None:
        self.callback(*self.args)

    def cancel(self) -> None:
        """Prevent the callback from running.  Safe to call repeatedly."""
        if self._cancelled:
            return
        self._cancelled = True
        # Drop references eagerly so cancelled timers do not pin payloads
        # (a retransmit timer can capture an entire segment).
        self.callback = _noop
        self.args = ()
        self._sched.retire(self)

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self._cancelled else "pending"
        return f"<EventHandle t={self.time:.6f} {state}>"


def _noop(*_args: Any) -> None:
    return None


#: What ``succeed`` and ``fail`` call with the event.
_Waiter = Callable[["SimEvent"], None]


class SimEvent:
    """A one-shot waitable event.

    A :class:`SimEvent` starts *pending*.  It is triggered exactly once via
    :meth:`succeed` or :meth:`fail`; triggering twice raises
    :class:`SimulationError`.  Processes that yielded the event are resumed
    by the kernel in FIFO order with the event's value (or the failure
    exception raised inside them).

    The class is deliberately independent of the scheduler: triggering only
    records the outcome and notifies subscribed callbacks; the process layer
    turns those callbacks into coroutine resumptions.  The outcome is three
    fields — ``_done``, ``_value``, ``_exc`` — that the kernel and the
    socket read directly (DESIGN §13 rule 9); the properties below are for
    everyone else.
    """

    __slots__ = ("sim", "_value", "_exc", "_done", "_callbacks", "name")

    def __init__(self, sim: "Any", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._done = False
        #: Who waits: nobody (``None``), the sole waiter itself, or, once
        #: a second subscribes, a list of them in subscription order
        #: (DESIGN §14 rule 6).
        self._callbacks: Union[None, _Waiter, List[_Waiter]] = None

    # Introspection -------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has succeeded or failed."""
        return self._done

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._done and self._exc is None

    @property
    def value(self) -> Any:
        """The success value; raises the failure exception for failed events."""
        if not self._done:
            raise SimulationError(f"event {self.name!r} not yet triggered")
        if self._exc is not None:
            raise self._exc
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exc

    # Triggering ----------------------------------------------------------
    def succeed(self, value: Any = None) -> "SimEvent":
        """Mark the event successful and wake all waiters."""
        if self._done:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._done = True
        self._value = value
        callbacks = self._callbacks
        if callbacks:
            # Swapped out first: a callback added from inside one of these
            # sees the event triggered and runs at once, exactly once.
            self._callbacks = None
            if type(callbacks) is list:
                for callback in callbacks:
                    callback(self)
            else:
                callbacks(self)
        return self

    def fail(self, exc: BaseException) -> "SimEvent":
        """Mark the event failed; waiters will see ``exc`` raised."""
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() requires an exception, got {exc!r}")
        if self._done:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._done = True
        self._exc = exc
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = None
            if type(callbacks) is list:
                for callback in callbacks:
                    callback(self)
            else:
                callbacks(self)
        return self

    # Subscription --------------------------------------------------------
    def add_callback(self, callback: _Waiter) -> None:
        """Run ``callback(event)`` when triggered (immediately if already)."""
        callbacks = self._callbacks
        if self._done:
            callback(self)
        elif callbacks is None:
            self._callbacks = callback
        elif type(callbacks) is list:
            callbacks.append(callback)
        else:
            self._callbacks = [callbacks, callback]

    def discard_callback(self, callback: _Waiter) -> None:
        """Remove a previously added callback if still subscribed."""
        callbacks = self._callbacks
        if type(callbacks) is list:
            if callback in callbacks:
                callbacks.remove(callback)
        elif callbacks is not None and callbacks == callback:
            self._callbacks = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "pending"
        if self._done:
            state = "ok" if self._exc is None else f"failed({self._exc!r})"
        return f"<SimEvent {self.name!r} {state}>"


class Timeout(SimEvent):
    """A :class:`SimEvent` that succeeds after a fixed simulated delay.

    Created via ``sim.timeout(delay, value)``; scheduling happens there so
    that this class stays a plain value object.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: Any, delay: float, name: str = "timeout") -> None:
        super().__init__(sim, name)
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        self.delay = delay
