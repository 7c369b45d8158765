"""Restartable one-shot timers over the simulation kernel.

Each TCP connection owns a handful of these (retransmit, delayed-ACK,
persist).  A timer's callback never fires after :meth:`stop`,
and restarting implicitly replaces the previous arming.

**The timer is its own queue entry's token** (``Scheduler.arm``):
arming pushes one ``(time, seq, timer, RestartableTimer._fire, None)``
tuple and allocates nothing else; an earlier re-arm or a cancel retires
the seq, and :meth:`cancel` also lets go of the callback, so the dead
entry pins the timer alone, not its owner (DESIGN §14 rule 6).

**Re-arming is lazy.**  The timer records its deadline and keeps at most
one kernel event queued.  ``start`` only moves the deadline when the
queued event is due no later than it; ``stop`` only clears the deadline.
The entry, when it runs, looks at the deadline: re-queues the timer at
it, fires, or — stopped — leaves.  An RTO timer restarted by every ACK thus
costs one queue entry per RTO period, not one per ACK.  The fire instant
is the float ``now + delay`` computed at ``start``, exactly what an eager
cancel-and-re-push would have queued
(``tests/tcp/test_timer_equivalence.py``).
"""

from __future__ import annotations

from types import MethodType
from typing import Any, Callable, Optional
from weakref import WeakMethod

from repro.errors import SimulationError


def _released() -> None:
    """The callback of a timer cancelled for good: one started again is a bug."""
    raise SimulationError("a timer cancelled for teardown was started again")


class RestartableTimer:
    """A named one-shot timer; ``start`` re-arms, ``stop`` disarms.

    The timer is its own queue token (``Scheduler.arm``): ``seq`` is its
    one queued entry's, or -1, and ``_due`` that entry's time."""

    __slots__ = ("sim", "callback", "name", "seq", "_due", "_deadline", "fired_count")

    def __init__(self, sim: Any, callback: Callable[[], Any], name: str = "timer") -> None:
        self.sim = sim
        self.callback: Callable[[], Any] = callback
        self.name = name
        self.seq = -1
        self._due = 0.0
        self._deadline: Optional[float] = None
        self.fired_count = 0

    @property
    def running(self) -> bool:
        return self._deadline is not None

    @property
    def deadline(self) -> Optional[float]:
        """Absolute fire time while armed, else None."""
        return self._deadline

    def start(self, delay: float) -> None:
        """Arm (or re-arm) the timer ``delay`` seconds from now.

        Unchecked: every retransmit, delayed-ACK and persist arming goes
        through here, and the delays are non-negative by construction
        (RTO and interval clamps).
        """
        sim = self.sim
        deadline = sim.now + delay
        self._deadline = deadline
        if self.seq >= 0 and self._due <= deadline:
            return  # the queued entry will find the new deadline
        if type(self.callback) is WeakMethod:  # cancelled: take it back
            self.callback = self.callback()
        self._due = deadline
        sim.arm(deadline, self, RestartableTimer._fire)  # retires a later entry

    def start_if_idle(self, delay: float) -> None:
        """Arm only when not already running (retransmit-timer semantics)."""
        if self._deadline is None:
            self.start(delay)

    def stop(self) -> None:
        """Disarm.  The queued entry, if any, stays for the next ``start``."""
        self._deadline = None

    def cancel(self) -> None:
        """Disarm and retire the queued entry, which holds the timer until
        due, and stop pinning the callback's owner through it: the timer
        keeps the callback as a weak method, which ``start`` takes back,
        or — a function, an owner without weak references (a slotted TCP
        engine) — drops it, for teardown, where nothing starts again."""
        self._deadline = None
        self.sim.retire(self)
        callback = self.callback
        if type(callback) is MethodType and type(callback.__self__).__weakrefoffset__:
            self.callback = WeakMethod(callback)
        elif type(callback) is not WeakMethod:
            self.callback = _released

    def _fire(self) -> None:
        deadline = self._deadline
        if deadline is None:  # stopped since this entry was queued
            return
        if deadline > self.sim.now:
            # Re-armed later: wait out the rest, at the recorded float
            # (``deadline - now`` added back to ``now`` would re-round it).
            self._due = deadline
            self.sim.arm(deadline, self, RestartableTimer._fire)
        else:
            self._deadline = None
            self.fired_count += 1
            self.callback()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = f"armed@{self.deadline:.6f}" if self.running else "idle"
        return f"<Timer {self.name} {state}>"
