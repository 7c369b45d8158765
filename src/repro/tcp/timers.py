"""Restartable one-shot timers over the simulation kernel.

Each TCP connection owns a handful of these (retransmit, delayed-ACK,
persist).  A timer's callback never fires after :meth:`stop`,
and restarting implicitly replaces the previous arming.

**Re-arming is lazy.**  The timer records its deadline and keeps at most
one kernel event queued.  ``start`` only moves the deadline when the
queued event is due no later than it; ``stop`` only clears the deadline.
The event, when it runs, looks at the deadline: re-queues itself at it,
fires, or — stopped — leaves.  An RTO timer restarted by every ACK thus
costs one queue entry per RTO period, not one per ACK.  The fire instant
is the float ``now + delay`` computed at ``start``, exactly what an eager
cancel-and-re-push would have queued
(``tests/tcp/test_timer_equivalence.py``).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.events import EventHandle


class RestartableTimer:
    """A named one-shot timer; ``start`` re-arms, ``stop`` disarms."""

    __slots__ = ("sim", "callback", "name", "_handle", "_deadline", "fired_count")

    def __init__(self, sim: Any, callback: Callable[[], None], name: str = "timer") -> None:
        self.sim = sim
        self.callback = callback
        self.name = name
        #: The one queued kernel event, due no later than ``_deadline``.
        self._handle: Optional[EventHandle] = None
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

        Uses the scheduler's relative fast path: every retransmit,
        delayed-ACK and persist arming goes through here, and the delays
        are non-negative by construction (RTO and interval clamps).
        """
        sim = self.sim
        deadline = sim.now + delay
        self._deadline = deadline
        handle = self._handle
        if handle is not None:
            if handle.time <= deadline:
                return  # the queued event will find the new deadline
            handle.cancel()
        self._handle = sim.call_later(delay, self._fire)

    def start_if_idle(self, delay: float) -> None:
        """Arm only when not already running (retransmit-timer semantics)."""
        if self._deadline is None:
            self.start(delay)

    def stop(self) -> None:
        """Disarm.  The queued event, if any, stays for the next ``start``."""
        self._deadline = None

    def cancel(self) -> None:
        """Disarm and drop the queued event, which holds the callback and
        so its owner: for teardown, where nothing will ``start`` again."""
        self._deadline = None
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        deadline = self._deadline
        if deadline is None:  # stopped since this event was queued
            self._handle = None
        elif deadline > self.sim.now:
            # Re-armed later: wait out the rest, at the recorded float
            # (``deadline - now`` added back to ``now`` would re-round it).
            self._handle = self.sim.schedule_at(deadline, self._fire)
        else:
            self._handle = None
            self._deadline = None
            self.fired_count += 1
            self.callback()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = f"armed@{self.deadline:.6f}" if self.running else "idle"
        return f"<Timer {self.name} {state}>"
