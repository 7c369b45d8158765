"""The event queue driving the discrete-event simulation.

One queue, two bands, chosen by how far ahead an event lies:

* a **hierarchical timing wheel** (Varghese–Lauck) for the short-horizon
  timer band.  TCP workloads are overwhelmingly timer workloads — most
  retransmission timers are cancelled by an ACK long before firing — and a
  wheel makes both insert and cancelled-entry disposal O(1) (a flag check
  when the slot is opened) instead of O(log n) heap percolation per pop;
* a **binary heap** of :class:`~repro.sim.events.EventHandle` objects for
  the few events beyond the wheel horizon, ordered by ``(time, priority,
  seq)``.  Cancelled handles are lazily discarded, and the heap is
  compacted when the *dead fraction* exceeds one half (never based on raw
  length alone).

Dispatch is in exact ``(time, priority, seq)`` order whichever band an
event was filed in — the seq tie-break is a per-scheduler counter
assigned at schedule time.  :meth:`Scheduler.run_until` drains the wheel
one ready slot at a time in a tight loop; ``tests/sim/test_timing_wheel.py``
checks it against a plain heap-only oracle in random ``until`` /
``max_events`` chunks.

Handles are recycled through a bounded free list once they have fired (or
were popped cancelled) and no outside reference remains — verified with
``sys.getrefcount`` so a caller-retained handle is never reused under it.
"""

from __future__ import annotations

import heapq
from bisect import insort
from math import inf
from sys import getrefcount
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.events import PRIORITY_NORMAL, EventHandle, SimEvent

#: Wheel entry: the sort key inlined ahead of the handle, so slot sorting
#: and late-arrival insorts compare plain tuples at C speed instead of
#: extracting attributes per element.  The key fields are copies made at
#: schedule time; ``seq`` is unique, so the handle itself is never
#: compared.
WheelEntry = Tuple[float, int, int, EventHandle]


class TimingWheel:
    """Hierarchical timing wheel for the near-future event band.

    Three levels of 1024/256/64 slots at ``resolution`` seconds per tick
    give a horizon of ``2**24`` ticks (≈28 minutes at the default 100 µs
    resolution).  The wide level 0 means every timer under ~100 ms — the
    vast majority of TCP timers — is filed directly into its final slot
    and never pays a cascade.  Slot membership is by absolute tick
    (``floor(time / resolution)``, computed once at insert); events
    cascade down a level whenever the cursor crosses that level's slot
    boundary.

    Slots store :data:`WheelEntry` tuples.  When a slot is opened it is
    sorted **in place** (a raw C tuple sort, no key extraction) and
    becomes the ready batch directly — zero copies — unless cancelled
    entries are known to exist (``_dead``), in which case they are
    filtered out first.  Late arrivals for the open slot (or for ticks
    the cursor already passed — possible when the cursor ran ahead
    through empty slots) are bisect-inserted into the unconsumed tail of
    the ready list, so dispatch order is identical to a single global
    heap.  ``_ready_mut`` counts every structural mutation of the ready
    list so the slot drain can detect divergence with one comparison.
    """

    __slots__ = (
        "resolution",
        "_inv_resolution",
        "_levels",
        "_counts",
        "_cur_tick",
        "_ready",
        "_ready_pos",
        "_ready_mut",
        "_dead",
        "_dirty0",
        "live",
    )

    #: Slot counts per level (level 0 is the finest).
    LEVEL_SLOTS = (1024, 256, 64)
    #: Bit widths of the level indices.
    _SHIFT0 = 10
    _SHIFT1 = 10 + 8
    #: Tick span covered by one slot of each level.
    _SPAN0 = 1 << _SHIFT0
    _SPAN1 = 1 << _SHIFT1
    _MASK0 = _SPAN0 - 1
    _MASK01 = _SPAN1 - 1
    #: Total horizon in ticks; events farther out go to the heap.
    HORIZON_TICKS = _SPAN1 * 64

    def __init__(self, resolution: float) -> None:
        if resolution <= 0:
            raise SimulationError(f"wheel resolution must be positive, got {resolution}")
        self.resolution = resolution
        self._inv_resolution = 1.0 / resolution
        self._levels: List[List[List[WheelEntry]]] = [
            [[] for _ in range(slots)] for slots in self.LEVEL_SLOTS
        ]
        self._counts = [0, 0, 0]  # entries per level, including cancelled
        self._cur_tick = 0
        self._ready: List[Optional[WheelEntry]] = []
        self._ready_pos = 0
        self._ready_mut = 0
        self._dead = 0  # cancelled entries still filed somewhere in the wheel
        # Level-0 slots whose entries arrived out of order.  Timer
        # deadlines are mostly scheduled monotonically (now + delay with
        # non-decreasing now), so most slots stay clean and skip the
        # open-time sort entirely.
        self._dirty0 = bytearray(self.LEVEL_SLOTS[0])
        self.live = 0  # non-cancelled entries anywhere in the wheel

    def tick_for(self, time: float) -> int:
        """Slot tick for an absolute time (monotonic in ``time``)."""
        return int(time * self._inv_resolution)

    def sync_if_empty(self, now_tick: int) -> None:
        """Fast-forward the cursor over a fully-drained wheel.

        Keeps insert deltas small after long heap-only stretches; only
        legal when no live entry remains (stale cancelled entries are
        harmless — every dispatch path checks the cancelled flag).
        """
        if self.live == 0 and now_tick > self._cur_tick:
            self._cur_tick = now_tick
            ready = self._ready
            if ready:
                # live == 0, so every unconsumed entry left is cancelled.
                pos = self._ready_pos
                self._dead -= sum(1 for e in ready[pos:] if e is not None)
                self._ready = []
            self._ready_pos = 0
            self._ready_mut += 1

    def insert(self, entry: WheelEntry, tick: int) -> None:
        """File an entry under its tick; caller guarantees the horizon."""
        delta = tick - self._cur_tick
        if delta <= 0:
            # The cursor already passed (or sits on) this tick: merge into
            # the sorted unconsumed tail of the ready list.  Plain tuple
            # comparison — the inlined key decides before the handle.
            insort(self._ready, entry, lo=self._ready_pos)
            self._ready_mut += 1
        elif delta < self._SPAN0:
            index = tick & self._MASK0
            slot = self._levels[0][index]
            if slot and entry < slot[-1]:
                self._dirty0[index] = 1
            slot.append(entry)
            self._counts[0] += 1
        elif delta < self._SPAN1:
            self._levels[1][(tick >> self._SHIFT0) & 255].append(entry)
            self._counts[1] += 1
        else:
            self._levels[2][(tick >> self._SHIFT1) & 63].append(entry)
            self._counts[2] += 1
        self.live += 1

    def peek(self) -> Optional[EventHandle]:
        """Earliest live entry's handle, advancing the cursor as needed."""
        ready = self._ready
        pos = self._ready_pos
        size = len(ready)
        dead = 0
        while pos < size:
            entry = ready[pos]
            if entry is not None:
                if not entry[3]._cancelled:
                    if dead:
                        # Skipping past cancelled entries consumes them;
                        # bump the mutation counter so an in-flight drain
                        # re-snapshots instead of double-accounting.
                        self._dead -= dead
                        self._ready_mut += 1
                    self._ready_pos = pos
                    return entry[3]
                dead += 1
            pos += 1
        if dead:
            self._dead -= dead
        self._ready_pos = 0
        ready.clear()
        self._ready_mut += 1
        if self.live == 0:
            return None
        return self._advance()

    def pop(self) -> EventHandle:
        """Remove and return the entry :meth:`peek` just found."""
        pos = self._ready_pos
        entry = self._ready[pos]
        self._ready[pos] = None  # free the entry tuple for handle recycling
        self._ready_pos = pos + 1
        self._ready_mut += 1
        self.live -= 1
        return entry[3]  # type: ignore[index]

    def _advance(self) -> EventHandle:
        """Walk the cursor forward to the next slot with a live entry."""
        counts = self._counts
        level0 = self._levels[0]
        mask0 = self._MASK0
        cur = self._cur_tick
        # Safety bound: one full horizon plus one wrap of cascades.
        limit = cur + self.HORIZON_TICKS + self._SPAN1
        while cur < limit:
            if counts[0] == 0:
                # Jump empty fine-grained spans in one step.
                if counts[1] == 0 and counts[2] == 0:
                    cur = (((cur >> self._SHIFT1) + 1) << self._SHIFT1) - 1
                else:
                    cur = (((cur >> self._SHIFT0) + 1) << self._SHIFT0) - 1
            cur += 1
            if cur & mask0 == 0:
                self._cur_tick = cur
                if cur & self._MASK01 == 0:
                    self._cascade(2, cur)
                self._cascade(1, cur)
            if counts[0]:
                index = cur & mask0
                slot = level0[index]
                if slot:
                    level0[index] = []
                    counts[0] -= len(slot)
                    if self._dead:
                        # Filtering a sorted slot preserves its order.
                        batch: List[Optional[WheelEntry]] = [
                            e for e in slot if not e[3]._cancelled
                        ]
                        self._dead -= len(slot) - len(batch)
                    else:
                        # No cancelled entry anywhere in the wheel: the
                        # slot list itself becomes the batch, zero-copy.
                        batch = slot  # type: ignore[assignment]
                    if self._dirty0[index]:
                        self._dirty0[index] = 0
                        batch.sort()  # type: ignore[arg-type]
                    if batch:
                        self._ready = batch
                        self._ready_pos = 0
                        self._ready_mut += 1
                        self._cur_tick = cur
                        return batch[0][3]  # type: ignore[index]
        raise SimulationError(
            "timing wheel inconsistency: live counter positive but no entry found"
        )

    def _cascade(self, level: int, cur: int) -> None:
        """Redistribute one coarse slot into the finer levels."""
        if level == 2:
            index = (cur >> self._SHIFT1) & 63
        else:
            index = (cur >> self._SHIFT0) & 255
        slot = self._levels[level][index]
        if not slot:
            return
        self._levels[level][index] = []
        counts = self._counts
        counts[level] -= len(slot)
        levels = self._levels
        dead = 0
        for entry in slot:
            handle = entry[3]
            if handle._cancelled:
                dead += 1
                continue
            tick = handle._tick
            delta = tick - cur
            if delta < self._SPAN0:
                index0 = tick & self._MASK0
                dst = levels[0][index0]
                if dst and entry < dst[-1]:
                    self._dirty0[index0] = 1
                dst.append(entry)
                counts[0] += 1
            else:
                levels[1][(tick >> self._SHIFT0) & 255].append(entry)
                counts[1] += 1
        if dead:
            self._dead -= dead


class Scheduler:
    """A time-ordered queue of pending callbacks (wheel + heap)."""

    __slots__ = (
        "_heap",
        "_wheel",
        "_now",
        "_executed",
        "_heap_live",
        "_seq",
        "_free",
    )

    #: Heap compaction floor: below this length, dead entries are cheap
    #: enough to keep regardless of fraction.
    GC_BASE_THRESHOLD = 4096

    #: Wheel tick in seconds.  100 µs splits the paper's testbed
    #: timescales cleanly: frame times land a handful per slot, while TCP
    #: timers (ms–s) stay well inside the ~28-minute horizon.
    WHEEL_RESOLUTION = 1e-4

    #: Recycled EventHandle pool cap.
    FREE_LIST_MAX = 8192

    #: Largest ready-batch tail the slot drain will snapshot.  Bigger
    #: batches fall back to the indexed loop so a pathological slot
    #: (thousands of same-tick events, each insorting a zero-delay
    #: arrival) cannot go quadratic in re-snapshot copies.
    READY_SNAPSHOT_MAX = 1024

    def __init__(self) -> None:
        self._heap: List[EventHandle] = []
        self._wheel = TimingWheel(self.WHEEL_RESOLUTION)
        self._now = 0.0
        self._executed = 0
        self._heap_live = 0
        self._seq = 0
        self._free: List[EventHandle] = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def executed_count(self) -> int:
        """Number of callbacks executed so far (for diagnostics)."""
        return self._executed

    @property
    def pending_count(self) -> int:
        """Number of live (non-cancelled) entries in the queue — O(1)."""
        return self._heap_live + self._wheel.live

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple = (),
        priority: int = PRIORITY_NORMAL,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.9f}, already at t={self._now:.9f}"
            )
        return self._push(time, callback, args, priority)

    def schedule_after(
        self,
        delay: float,
        callback: Callable[..., Any],
        args: tuple = (),
        priority: int = PRIORITY_NORMAL,
    ) -> EventHandle:
        """Relative-delay fast path: skips the ``time < now`` guard.

        Callers must guarantee ``delay >= 0`` (the :class:`Simulator`
        wrappers either validate it once or hold it by construction).
        """
        return self._push(self._now + delay, callback, args, priority)

    def _push(
        self, time: float, callback: Callable[..., Any], args: tuple, priority: int
    ) -> EventHandle:
        free = self._free
        if free:
            handle = free.pop()
            handle.time = time
            handle.priority = priority
            handle.callback = callback
            handle.args = args
            handle._cancelled = False
        else:
            handle = EventHandle(time, priority, callback, args)
        seq = self._seq
        handle.seq = seq
        self._seq = seq + 1
        handle._sched = self
        wheel = self._wheel
        if wheel.live == 0:
            wheel.sync_if_empty(wheel.tick_for(self._now))
        tick = wheel.tick_for(time)
        if tick - wheel._cur_tick < TimingWheel.HORIZON_TICKS:
            handle._tick = tick
            wheel.insert((time, priority, seq, handle), tick)
            return handle
        handle._tick = -1
        heapq.heappush(self._heap, handle)
        self._heap_live += 1
        return handle

    # Cancellation accounting ---------------------------------------------
    def _on_cancel(self, handle: EventHandle) -> None:
        """Called by :meth:`EventHandle.cancel` while the handle is queued."""
        if handle._tick >= 0:
            wheel = self._wheel
            wheel.live -= 1
            wheel._dead += 1
        else:
            self._heap_live -= 1
            heap_size = len(self._heap)
            # Compact on dead *fraction*: once half the heap is cancelled
            # (and it is big enough to matter), rebuild it live-only.
            if heap_size > self.GC_BASE_THRESHOLD and self._heap_live * 2 <= heap_size:
                live = [entry for entry in self._heap if not entry._cancelled]
                heapq.heapify(live)
                self._heap = live

    def _recycle(self, handle: EventHandle) -> None:
        """Return a fired/dead handle to the free list if nothing else
        holds it (caller owns exactly one reference)."""
        # 3 == caller's local + our parameter + getrefcount's argument.
        if len(self._free) < self.FREE_LIST_MAX and getrefcount(handle) == 3:
            handle.callback = _noop_handle
            handle.args = ()
            handle._sched = None
            self._free.append(handle)

    # Inspection ----------------------------------------------------------
    def _heap_head(self) -> Optional[EventHandle]:
        heap = self._heap
        while heap:
            head = heap[0]
            if not head._cancelled:
                return head
            heapq.heappop(heap)
            self._recycle(head)
        return None

    def _next_handle(self) -> Optional[EventHandle]:
        """Earliest live entry across wheel and heap (no removal)."""
        wheel_head = self._wheel.peek()
        heap_head = self._heap_head()
        if wheel_head is None:
            return heap_head
        if heap_head is None or wheel_head < heap_head:
            return wheel_head
        return heap_head

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if the queue is empty."""
        head = self._next_handle()
        return head.time if head is not None else None

    # Execution -----------------------------------------------------------
    def _pop(self, head: EventHandle) -> None:
        """Remove ``head`` (the current :meth:`_next_handle`) from its band."""
        if head._tick >= 0:
            self._wheel.pop()
        else:
            heapq.heappop(self._heap)
            self._heap_live -= 1

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
        head = self._next_handle()
        if head is None:
            return False
        if until is not None and head.time > until:
            return False
        self._pop(head)
        self._now = head.time
        self._executed += 1
        head._sched = None
        head.callback(*head.args)
        self._recycle(head)
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

        The loop alternates between draining the wheel's ready batch in a
        tight loop (the common case) and single-event heap dispatch
        (events beyond the wheel horizon), preserving global ``(time,
        priority, seq)`` order: the heap head bounds each drain, and
        within a batch the ready list is already sorted.
        """
        wheel = self._wheel
        remaining = -1 if max_events is None else max_events
        stop = False
        while not stop:
            wheel_head = wheel.peek()
            heap_head = self._heap_head()
            if wheel_head is None and heap_head is None:
                break
            if wheel_head is not None and (heap_head is None or wheel_head < heap_head):
                if until is not None and wheel_head.time > until:
                    break
                # Drop this frame's reference so the drain loop's
                # refcount-gated recycling still sees the batch's first
                # handle as unreferenced once it has fired.
                wheel_head = None
                remaining, stop = self._drain_ready(heap_head, until, remaining, watch)
            else:
                assert heap_head is not None
                if until is not None and heap_head.time > until:
                    break
                remaining, stop = self._run_heap_event(heap_head, until, remaining, watch)
        # No final clock advance under ``watch``: the caller
        # (run_until_complete) distinguishes "queue drained" from
        # "deadline reached" by whether the clock moved.
        if stop or watch is not None:
            return
        if until is not None and until > self._now:
            self._now = until

    def _drain_ready(
        self,
        bound: Optional[EventHandle],
        until: Optional[float],
        remaining: int,
        watch: Optional[SimEvent],
    ) -> "tuple[int, bool]":
        """Dispatch the wheel's ready batch in one tight loop.

        The batch is iterated as a C-level loop over a snapshot slice —
        roughly 3× cheaper per event than index arithmetic — which is
        sound because the ready list cannot change *under* the snapshot
        unnoticed:

        * ``bound`` (the heap head at batch start) is a conservative floor
          for the heap for the whole drain — new heap arrivals are at
          least one full wheel horizon after every ready entry, and
          cancelling the head only *raises* the true heap minimum.  A
          ready entry not strictly below ``bound`` breaks out to the
          caller, which re-resolves both heads.
        * ``wheel._ready_pos`` is synced *before* each callback, so
          zero-delay arrivals insort into the unconsumed (and never
          nulled, hence bisect-safe) tail.  Every structural mutation of
          the ready list — insort, reentrant drain, a peek that skips or
          clears — bumps ``wheel._ready_mut``; one comparison after each
          callback triggers a re-snapshot from the live list.
        * ``wheel.live`` and ``self._executed`` are flushed per batch in
          the ``finally`` (exception-safe); mid-batch the only reader is
          ``_push``'s ``live == 0`` fast path, for which an overestimate
          merely skips an optional cursor resync that is a no-op during a
          drain anyway (``now`` never maps past ``_cur_tick`` here).

        Returns the updated ``max_events`` budget (-1 = unlimited) and
        whether the caller must stop outright (budget exhausted or the
        ``watch`` stop condition fired).
        """
        wheel = self._wheel
        free = self._free
        free_len = len(free)
        free_cap = self.FREE_LIST_MAX
        getref = getrefcount
        ut = inf if until is None else until
        bt = inf if bound is None else bound.time
        # One compare covers both bounds; the bt tie-break below can only
        # be reached when bt <= ut (otherwise t == bt would exceed limit).
        limit = bt if bt < ut else ut
        # Dispatched-count bookkeeping is deferred: the ``finally`` flush
        # derives it from how far the cursor moved past each snapshot
        # start, minus cancelled entries skipped over (``skips``).
        done = 0
        rpos = rpos0 = skips = 0
        try:
            while True:
                ready = wheel._ready
                rpos = rpos0 = wheel._ready_pos
                skips = 0
                if rpos >= len(ready):
                    return remaining, False
                if len(ready) - rpos > self.READY_SNAPSHOT_MAX:
                    return self._drain_ready_indexed(bound, until, remaining, watch)
                mut = wheel._ready_mut
                resnapshot = False
                for entry in ready[rpos:]:
                    handle = entry[3]
                    if handle._cancelled:
                        rpos += 1
                        skips += 1
                        wheel._dead -= 1
                        continue
                    t = entry[0]
                    if t > limit or (t == bt and not handle < bound):
                        wheel._ready_pos = rpos
                        return remaining, False
                    if remaining >= 0:
                        if remaining == 0:
                            wheel._ready_pos = rpos
                            return 0, True
                        remaining -= 1
                    rpos += 1
                    wheel._ready_pos = rpos
                    self._now = t
                    handle._sched = None
                    callback = handle.callback  # named local: the profiler reads it
                    callback(*handle.args)
                    # Inline _recycle: 3 == the entry tuple + this local +
                    # getrefcount's argument.  The consumed tuple lingers
                    # in the batch until it is cleared but is never
                    # re-read, so reusing its handle under it is safe.
                    # free_len may go stale if a callback pops the free
                    # list (recycle skipped: harmless) or a reentrant
                    # drain appends (soft cap overshoot: harmless).
                    if free_len < free_cap and getref(handle) == 3:
                        handle.callback = _noop_handle
                        handle.args = ()
                        free.append(handle)
                        free_len += 1
                    if watch is not None and (watch._done or t >= ut):
                        return remaining, True
                    if wheel._ready_mut != mut:
                        resnapshot = True
                        break
                if not resnapshot:
                    wheel._ready_pos = rpos
                    return remaining, False
                done += rpos - rpos0 - skips
        finally:
            dispatched = done + (rpos - rpos0 - skips)
            wheel.live -= dispatched
            self._executed += dispatched

    def _drain_ready_indexed(
        self,
        bound: Optional[EventHandle],
        until: Optional[float],
        remaining: int,
        watch: Optional[SimEvent],
    ) -> "tuple[int, bool]":
        """Index-arithmetic fallback drain for oversized ready batches.

        Same contract as :meth:`_drain_ready`, with per-event counter
        updates; used when the batch tail exceeds ``READY_SNAPSHOT_MAX``
        so snapshot copies cannot go quadratic.
        """
        wheel = self._wheel
        ready = wheel._ready
        pos = wheel._ready_pos
        free = self._free
        free_cap = self.FREE_LIST_MAX
        getref = getrefcount
        while pos < len(ready):
            entry = ready[pos]
            if entry is None:
                pos += 1
                continue
            handle = entry[3]
            if handle._cancelled:
                pos += 1
                wheel._dead -= 1
                continue
            if (until is not None and entry[0] > until) or (
                bound is not None and not handle < bound
            ):
                break
            if remaining >= 0:
                if remaining == 0:
                    wheel._ready_pos = pos
                    return 0, True
                remaining -= 1
            pos += 1
            wheel._ready_pos = pos
            wheel.live -= 1
            self._now = entry[0]
            self._executed += 1
            handle._sched = None
            callback = handle.callback  # named local: the profiler reads it
            callback(*handle.args)
            # Inline _recycle: 3 == the entry tuple + this local +
            # getrefcount's argument (the consumed tuple is never re-read).
            if len(free) < free_cap and getref(handle) == 3:
                handle.callback = _noop_handle
                handle.args = ()
                free.append(handle)
            if wheel._ready is not ready:
                ready = wheel._ready
            pos = wheel._ready_pos
            if watch is not None and (
                watch._done or (until is not None and self._now >= until)
            ):
                return remaining, True
        wheel._ready_pos = pos
        return remaining, False

    def _run_heap_event(
        self,
        head: EventHandle,
        until: Optional[float],
        remaining: int,
        watch: Optional[SimEvent],
    ) -> "tuple[int, bool]":
        """Dispatch one beyond-horizon event from the heap."""
        if remaining >= 0:
            if remaining == 0:
                return 0, True
            remaining -= 1
        heapq.heappop(self._heap)
        self._heap_live -= 1
        self._now = head.time
        self._executed += 1
        head._sched = None
        callback = head.callback  # named local: the profiler reads it
        callback(*head.args)
        # Inline _recycle: 3 == the caller's heap_head + our parameter +
        # getrefcount's argument.
        if getrefcount(head) == 3 and len(self._free) < self.FREE_LIST_MAX:
            head.callback = _noop_handle
            head.args = ()
            self._free.append(head)
        if watch is not None and (
            watch._done or (until is not None and self._now >= until)
        ):
            return remaining, True
        return remaining, False


def _noop_handle(*_args: Any) -> None:
    return None
