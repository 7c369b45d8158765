"""``RestartableTimer`` re-arms lazily; this file holds it to the eager timer
it replaced.

The reference below is that timer, whole: ``start`` cancels the queued
event and pushes a new one, ``stop`` cancels it.  The real timer keeps one
queued event and moves a recorded deadline instead (``tcp/timers.py``).
Observable behaviour — when the callback runs, ``fired_count``,
``running``, ``deadline`` — must be the same float for float.
"""

import gc
import random
import weakref

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import SimulationError
from repro.sim.simulator import Simulator
from repro.tcp.timers import RestartableTimer
from tests.tcp.test_engines import FakeClock


class EagerTimer:
    """The reference: cancel-and-re-push, one kernel event per ``start``."""

    def __init__(self, sim, callback):
        self.sim, self.callback = sim, callback
        self._handle, self.fired_count = None, 0

    running = property(lambda self: self._handle is not None)
    deadline = property(lambda self: self._handle.time if self._handle else None)

    def start(self, delay):
        self.stop()
        self._handle = self.sim.schedule_at(self.sim.now + delay, self._fire)

    def start_if_idle(self, delay):
        if not self.running:
            self.start(delay)

    def stop(self):
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    cancel = stop

    def _fire(self):
        self._handle = None
        self.fired_count += 1
        self.callback()


class _Side:
    """One timer on its own clock, its callback recording the fire instant
    and — like the heartbeat and persist timers — optionally re-arming."""

    def __init__(self, timer_class):
        self.clock = FakeClock()
        self.fires = []
        self.rearm = None
        self.stopped = False
        self.timer = timer_class(self.clock, self._on_fire)

    def _on_fire(self):
        assert not self.stopped, "fired after stop()"
        self.fires.append(self.clock.now)
        if self.rearm is not None:
            self.timer.start(self.rearm)

    def state(self):
        timer = self.timer
        return self.fires, timer.fired_count, timer.running, timer.deadline


# Sums of a few binary-inexact delays: re-rounding a deadline would show.
_INTERVALS = st.sampled_from([0.001, 0.025, 0.04, 0.1, 0.2, 0.3, 1.0]) | st.floats(0.001, 3.0)
_DELAYS = st.just(0.0) | _INTERVALS


class LazyTimerAgainstEager(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sides = (_Side(RestartableTimer), _Side(EagerTimer))

    @rule(delay=_DELAYS)
    def start(self, delay):
        for side in self.sides:
            side.stopped = False
            side.timer.start(delay)

    @rule(delay=_DELAYS)
    def start_if_idle(self, delay):
        for side in self.sides:
            side.timer.start_if_idle(delay)
            side.stopped = False

    @rule()
    def stop(self):
        for side in self.sides:
            side.timer.stop()
            side.stopped = True

    @rule()
    def cancel(self):
        for side in self.sides:
            side.timer.cancel()
            side.stopped = True
        assert self.sides[0].clock.pending_count == 0

    @rule(interval=st.none() | _INTERVALS)  # one that moves the clock
    def callback_rearms(self, interval):
        for side in self.sides:
            side.rearm = interval

    @rule(dt=_DELAYS)
    def advance(self, dt):
        for side in self.sides:
            side.clock.advance(dt)

    @invariant()
    def same_fires_counts_and_deadline(self):
        lazy, eager = self.sides
        assert lazy.clock.now == eager.clock.now
        assert lazy.state() == eager.state()

    @invariant()
    def at_most_one_queued_event(self):
        assert self.sides[0].clock.pending_count <= 1


LazyTimerAgainstEager.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
test_lazy_timer_against_eager = LazyTimerAgainstEager.TestCase


def test_a_stale_event_does_not_count_as_a_fire():
    """``fired_count`` is read by tests/ftcp and tests/tcp/test_transfer.py
    as "the callback ran"; the queued event of a stopped or re-armed timer
    looking and leaving is not that."""
    clock = FakeClock()
    fires = []
    timer = RestartableTimer(clock, lambda: fires.append(clock.now))
    timer.start(0.2)
    timer.stop()
    clock.advance(0.3)  # the event queued by start() runs, stopped
    assert (fires, timer.fired_count, clock.pending_count) == ([], 0, 0)
    timer.start(0.2)
    clock.advance(0.1)
    timer.start(0.2)  # deadline moves from 0.5 to 0.6; the event stays at 0.5
    clock.advance(0.15)  # ... runs there and re-queues itself
    assert (fires, timer.fired_count, clock.pending_count) == ([], 0, 1)
    clock.advance(0.1)
    assert (fires, timer.fired_count) == ([0.3 + 0.1 + 0.2], 1)


def test_a_moved_deadline_is_not_re_rounded():
    """The event that finds its deadline moved re-queues *at the deadline*.
    Re-arming with ``deadline - now`` would land on ``now + (deadline - now)``,
    one ulp off in about 2 % of these draws (a late deadline seen from an
    early clock), and every later timestamp of the run with it."""
    rng = random.Random(22)
    for _ in range(2000):
        clock = FakeClock()
        fires = []
        timer = RestartableTimer(clock, lambda: fires.append(clock.now))
        first = rng.uniform(0.0, 0.5)
        timer.start(first)
        clock.advance(rng.uniform(0.0, first) / 2)
        delay = first * rng.uniform(2.0, 50.0)
        expected = clock.now + delay
        timer.start(delay)
        clock.advance(30.0)
        assert fires == [expected]


def test_an_earlier_deadline_replaces_the_queued_event():
    clock = FakeClock()
    fires = []
    timer = RestartableTimer(clock, lambda: fires.append(clock.now))
    timer.start(1.0)
    timer.start(0.04)
    assert (timer.deadline, clock.pending_count) == (0.04, 1)
    clock.advance(2.0)
    assert fires == [0.04]


def test_start_stop_cycles_leave_one_queued_event_per_timer():
    """Eager re-arming pushed one heap entry per ``start`` and relied on
    the scheduler's compaction to bound the dead ones; now there are none
    to compact."""
    sim = Simulator()
    timers = [RestartableTimer(sim, lambda: None, f"t{i}") for i in range(100)]
    for _ in range(10_000):
        for timer in timers:
            timer.start(0.2)
            timer.stop()
    scheduler = sim._scheduler
    assert scheduler.pending_count <= 100
    assert len(scheduler._heap) <= 100  # live or dead
    sim.run()
    assert sum(timer.fired_count for timer in timers) == 0


class _Owner:
    def __init__(self, sim):
        self.timer = RestartableTimer(sim, self.on_timer, "owned")

    def on_timer(self):
        pass


def test_cancel_releases_the_callbacks_owner_and_stop_does_not():
    """The queued event holds ``timer._fire`` → ``callback`` → owner.
    ``stop`` leaves it queued (the next ``start`` reuses it), so teardown
    paths (``_enter_closed``) use ``cancel``."""
    sim = Simulator()
    stopped, cancelled = _Owner(sim), _Owner(sim)
    stopped.timer.start(5.0)
    stopped.timer.stop()
    cancelled.timer.start(5.0)
    cancelled.timer.cancel()
    assert not cancelled.timer.running and cancelled.timer.deadline is None
    stopped, cancelled = weakref.ref(stopped), weakref.ref(cancelled)
    gc.collect()
    assert cancelled() is None
    assert stopped() is not None
    sim.run()  # the stopped timer's event comes due, looks and leaves
    gc.collect()
    assert stopped() is None


class _SlottedOwner:
    """An owner that takes no weak reference, as the TCP engines."""

    __slots__ = ("timer",)

    def __init__(self, sim):
        self.timer = RestartableTimer(sim, self.on_timer, "slotted")

    def on_timer(self):
        pass


def test_a_cancel_keeps_a_restartable_callback_only_where_it_can_be_weak():
    """``cancel`` lets go of the owner: a weak method where the owner takes
    weak references (a ``start`` takes it back), else the callback is
    dropped and a timer started again says so when it fires."""
    sim = Simulator()
    owner, slotted = _Owner(sim), _SlottedOwner(sim)
    for timer in (owner.timer, slotted.timer):
        timer.start(1.0)
        timer.cancel()
        timer.start(2.0)
    with pytest.raises(SimulationError, match="cancelled for teardown"):
        sim.run()
    assert owner.timer.fired_count == 1 and sim.now == 2.0
