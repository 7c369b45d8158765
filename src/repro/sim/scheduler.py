"""The event queue driving the discrete-event simulation.

One binary heap of plain tuples ``(time, seq, token, fn, args)`` driven
by :mod:`heapq`, and one dispatch loop (:meth:`Scheduler.run_until`).

* **Why tuples.**  ``heappush`` / ``heappop`` of a tuple whose first two
  fields are a float and an int compare entirely in C; ``seq`` is a
  per-scheduler counter assigned at schedule time and therefore unique,
  so the comparison is decided before the fields behind it are ever
  looked at (a token defines no ordering).
* **The object that waits is its own token.**  :meth:`Scheduler.post`
  queues ``(time, seq, None, fn, args)``, run as ``fn(*args)`` and never
  cancelled.  :meth:`Scheduler.arm` queues ``(time, seq, token, fn,
  None)``, run as ``fn(token)``: the entry is live while ``token.seq ==
  seq``, so a token (a ``RestartableTimer``, a ``TimeWait`` record, the
  :class:`EventHandle` of :meth:`schedule_at`) allocates nothing to be
  armed, and re-arming it or :meth:`Scheduler.retire` only moves its
  ``seq``.  A token's ``seq`` is -1 while no entry of its is live; the
  dispatch loop sets it so before the call.  Every entry takes its
  ``seq`` from the one counter, so the dispatch order is the same
  whichever entry point queued an event.
* **Why the order cannot move.**  Dispatch is in ``(time, seq)`` order —
  time, then schedule order — a total order, so any correct priority
  queue yields the same sequence; ``tests/sim/test_timing_wheel.py``
  checks this one against an independent textbook heap in random
  ``until`` / ``max_events`` chunks.
* **Cancellation is lazy.**  A retired entry is dropped when it reaches
  the top; ``pending_count`` is the heap length less the count of dead
  entries, and the heap is rebuilt live-only — in place —
  once half of a heap larger than :attr:`Scheduler.GC_BASE_THRESHOLD` is
  dead, so a cancel-and-re-arm timer pattern cannot grow it without bound.
* **The clock is a field.**  The dispatch loop writes ``clock.now``
  before each callback; everything else reads it as a plain attribute.
  A :class:`~repro.sim.simulator.Simulator` passes itself as the clock,
  so ``sim.now`` is that field; a standalone scheduler is its own clock.
* **Event times are finite.**  ``nan`` and ``inf`` are rejected when an
  event is queued, by ``post`` as by ``schedule_at``: either would fire
  and leave the clock unusable.  A run bound is checked once per run:
  ``until=nan`` or a negative ``max_events`` raises rather than running
  without a limit.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import inf
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.events import EventHandle, SimEvent

#: Heap entry: the sort key, then either a token and ``fn(token)``, or no
#: token and ``fn(*args)``.
HeapEntry = Tuple[float, int, Any, Callable[..., Any], Optional[tuple]]


class Scheduler:
    """A time-ordered queue of pending callbacks.

    :meth:`post` queues a callback nobody will cancel; :meth:`arm`, one
    for a token that can retire it; :meth:`schedule_at` and
    :meth:`schedule_after` arm a new :class:`EventHandle` and return it.

    ``clock`` is the object whose ``now`` attribute the dispatch loop
    writes (default: the scheduler itself).  A scheduler built for a
    clock never sets its own ``now``, so reading that is an error rather
    than a stale time.
    """

    __slots__ = ("_heap", "now", "_clock", "_executed", "_dead", "_seq")

    #: Heap compaction floor: below this length, dead entries are cheap
    #: enough to keep regardless of fraction.
    GC_BASE_THRESHOLD = 4096

    def __init__(self, clock: Any = None) -> None:
        self._heap: List[HeapEntry] = []
        if clock is None:
            clock = self
        #: Current simulated time in seconds, when the scheduler is its
        #: own clock.
        clock.now = 0.0
        self._clock = clock
        self._executed = 0
        self._dead = 0  # retired entries still in the heap
        self._seq = 0

    @property
    def executed_count(self) -> int:
        """Number of callbacks executed so far (for diagnostics)."""
        return self._executed

    @property
    def pending_count(self) -> int:
        """Number of live (not retired) entries in the queue — O(1)."""
        return len(self._heap) - self._dead

    def schedule_at(self, time: float, callback: Callable[..., Any], args: tuple = ()) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        now = self._clock.now
        if time < now:
            raise SimulationError(
                f"cannot schedule at t={time:.9f}, already at t={now:.9f}"
            )
        return self._schedule(time, callback, args)

    def schedule_after(self, delay: float, callback: Callable[..., Any], args: tuple = ()) -> EventHandle:
        """Relative-delay fast path: skips the ``time < now`` guard.

        Callers must guarantee ``delay >= 0`` (the :class:`Simulator`
        wrapper validates it).
        """
        return self._schedule(self._clock.now + delay, callback, args)

    def _schedule(self, time: float, callback: Callable[..., Any], args: tuple) -> EventHandle:
        handle = EventHandle(time, callback, args, self)
        self.arm(time, handle, EventHandle._fire)
        return handle

    def post(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        """Queue ``callback(*args)`` at absolute ``time``, uncancellable.

        The entry point for every caller that would drop the handle: no
        token, and the event takes the next ``seq``, exactly as
        ``schedule_at`` would give it.  One chained compare
        rejects a past, ``nan`` or infinite time.
        """
        now = self._clock.now
        if not now <= time < inf:
            raise SimulationError(
                f"event time must be finite and not before now={now!r}, got {time!r}"
            )
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, seq, None, callback, args))

    def arm(self, time: float, token: Any, fn: Callable[[Any], Any]) -> None:
        """Queue ``fn(token)`` at absolute ``time`` as ``token``'s one live
        entry, retiring the one it had.  Unchecked against ``now``: a
        token's owner holds ``time >= now`` by construction."""
        if not time < inf:  # one compare rejects both inf and nan
            raise SimulationError(f"event time must be finite, got {time}")
        if token.seq >= 0:
            self.retire(token)
        seq = self._seq
        self._seq = seq + 1
        token.seq = seq
        heappush(self._heap, (time, seq, token, fn, None))

    def retire(self, token: Any) -> None:
        """Make ``token``'s live entry, if any, a dead one."""
        if token.seq < 0:
            return
        token.seq = -1
        self._dead += 1
        heap = self._heap
        size = len(heap)
        # Compact on dead *fraction*: once half the heap is retired (and
        # it is big enough to matter), rebuild it live-only.  In place, so
        # a dispatch loop holding the list keeps seeing the queue.  Posted
        # entries (no token) are always live.
        if self._dead * 2 >= size > self.GC_BASE_THRESHOLD:
            heap[:] = [entry for entry in heap if entry[2] is None or entry[2].seq == entry[1]]
            heapify(heap)
            self._dead = 0

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if the queue is empty."""
        heap = self._heap
        while heap:
            time, seq, token, _, _ = heap[0]
            if token is None or token.seq == seq:
                return time
            heappop(heap)
            self._dead -= 1
        return None

    def run_next(self) -> bool:
        """Pop and execute the next live event.

        Returns ``False`` when the queue is empty.  Advances the clock to
        the event's timestamp before invoking the callback.
        """
        return self.run_next_before(None)

    def run_next_before(self, until: Optional[float] = None) -> bool:
        """Pop and execute the next live event if it is at or before ``until``.

        Returns ``False`` — without advancing the clock — when the queue
        is empty or the next live event is after ``until``.
        """
        time = self.peek_time()
        if time is None or (until is not None and time > until):
            return False
        self.run_until(max_events=1)
        return True

    def run_until(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        watch: Optional[SimEvent] = None,
    ) -> None:
        """Drain the queue, optionally bounded by time and/or event count.

        With ``until`` set, the clock is advanced to exactly ``until`` after
        the last event at or before it, so repeated bounded runs compose.
        A spent ``max_events`` budget stops the run — without that clock
        advance — only when a further event is still due.

        With ``watch`` set (a :class:`SimEvent`, typically a process), the
        run stops — without the final clock advance — as soon as an event
        leaves ``watch`` triggered, or leaves ``now >= until``.  This is
        :meth:`Simulator.run_until_complete`'s per-event stop condition.

        This is the only place a callback is invoked from.  An ``until``
        of ``nan`` or a negative ``max_events`` raises
        :class:`SimulationError`: either would otherwise run unbounded.
        """
        ut = inf if until is None else until
        if not ut <= inf:  # only nan fails this compare
            raise SimulationError("run bound until=nan: no event time compares after it")
        if max_events is not None and max_events < 0:
            raise SimulationError(f"run bound max_events must be >= 0, got {max_events}")
        heap = self._heap  # compaction is in place: the local stays valid
        clock = self._clock
        remaining = -1 if max_events is None else max_events
        while heap:
            time, seq, token, fn, args = heap[0]
            if token is not None and token.seq != seq:
                heappop(heap)
                self._dead -= 1
                continue
            if time > ut:
                break
            if remaining >= 0:
                if remaining == 0:
                    return
                remaining -= 1
            heappop(heap)
            clock.now = time
            self._executed += 1
            if token is None:
                fn(*args)
            else:
                token.seq = -1
                fn(token)
            if watch is not None and (watch._done or time >= ut):
                return
        # No final clock advance under ``watch``: the caller
        # (run_until_complete) distinguishes "queue drained" from
        # "deadline reached" by whether the clock moved.
        if watch is None and until is not None and until > clock.now:
            clock.now = until
