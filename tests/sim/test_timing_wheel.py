"""Dispatch-order tests for the scheduler: same-instant ordering, late
inserts, cancellation, and the differentials against an independent
textbook heap (the determinism contract) — seeded drives and a hypothesis
state machine.

The file and several test names date from the timing wheel this suite was
written against; they are kept so the test ids stay stable.  Everything
here states a property of ``(time, seq)`` dispatch — time, then schedule
order — that any queue must hold.
"""

import heapq
import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.sim.events import SimEvent
from repro.sim.scheduler import Scheduler
from repro.sim.simulator import Simulator

#: The farthest delay band, about 28 simulated minutes (what used to be
#: the wheel's horizon, 2**24 ticks of 100 µs; the value is kept so the
#: seeded drives are unchanged).
FAR_S = 2**24 * 1e-4


def make_recorder(sched):
    fired = []

    def fire(tag):
        fired.append((sched.now, tag))

    return fired, fire


def test_events_across_all_levels_and_heap_band_fire_in_time_order():
    sched = Scheduler()
    fired, fire = make_recorder(sched)
    times = [
        0.00005,
        0.9,
        30.0,
        FAR_S + 50.0,
        0.00007,
        200.0,
    ]
    for index, time in enumerate(times):
        sched.schedule_at(time, fire, (index,))
    sched.run_until()
    assert [when for when, _ in fired] == sorted(times)
    assert sched.pending_count == 0
    assert sched.executed_count == len(times)


def test_late_insert_behind_advanced_cursor_still_fires_first():
    sched = Scheduler()
    fired, fire = make_recorder(sched)
    sched.schedule_at(5.0, fire, ("far",))
    # Peeking at the head must not commit the queue to it: an insert
    # ahead of it (legal: 0.001 >= now == 0) still dispatches first.
    assert sched.peek_time() == 5.0
    sched.schedule_at(0.001, fire, ("near",))
    sched.schedule_at(0.002, fire, ("mid",))
    sched.run_until()
    assert [tag for _, tag in fired] == ["near", "mid", "far"]


def test_cancelled_entries_never_fire_and_counters_stay_live():
    sched = Scheduler()
    fired, fire = make_recorder(sched)
    near = sched.schedule_at(0.001, fire, ("near",))
    mid = sched.schedule_at(1.0, fire, ("mid",))
    far = sched.schedule_at(FAR_S + 10.0, fire, ("far",))
    assert sched.pending_count == 3
    near.cancel()
    far.cancel()
    far.cancel()  # idempotent
    assert sched.pending_count == 1
    sched.run_until()
    assert [tag for _, tag in fired] == ["mid"]
    assert mid.time == 1.0
    assert sched.pending_count == 0


def test_cancel_from_callback_suppresses_same_slot_sibling():
    sched = Scheduler()
    fired, fire = make_recorder(sched)
    handles = {}

    def fire_and_cancel(tag, victim):
        fired.append((sched.now, tag))
        handles[victim].cancel()

    # Same instant: schedule order decides, so "a" runs first and cancels "b".
    sched.schedule_at(1e-5, fire_and_cancel, ("a", "b"))
    handles["b"] = sched.schedule_at(1e-5, fire, ("b",))
    sched.run_until()
    assert [tag for _, tag in fired] == ["a"]


def test_retained_handle_is_never_recycled():
    sched = Scheduler()
    fired, fire = make_recorder(sched)
    kept = sched.schedule_at(0.001, fire, ("kept",))
    sched.run_until()
    # We still hold `kept`: new schedules get their own handles, and our
    # fields stay frozen at the fired values.
    assert kept.time == 0.001
    fresh = sched.schedule_at(0.002, fire, ("fresh",))
    assert fresh is not kept
    assert (kept.time, kept.seq) != (fresh.time, fresh.seq)
    kept.cancel()  # cancelling a fired handle touches no live counter
    assert sched.pending_count == 1
    sched.run_until()
    assert [tag for _, tag in fired] == ["kept", "fresh"]


# Randomized differential: the scheduler and a plain heap-only oracle must
# execute the exact same (time, tag) sequence for the same driving workload
# — including nested scheduling and cancellations from inside callbacks,
# ties, and events hours apart — and must agree on the clock and the live
# count wherever a bounded run stops.  The clock is read inside every
# callback and after every run, on a bare scheduler (its own clock) and on a
# simulator's (whose ``now`` field the dispatch loop writes).  The oracle
# shares no code with the
# scheduler (entries carry their callback, cancelled entries are counted by
# scanning), so it stays an independent reference now that production is a
# heap too.


class HeapOracle:
    """The textbook event queue: one heap on ``(time, seq)``,
    one event per loop turn.  Defines what ``run_until`` means."""

    class Handle:
        cancelled = False

        def cancel(self):
            self.cancelled = True

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._seq = 0

    @property
    def pending_count(self):
        return sum(1 for entry in self._heap if not entry[2].cancelled)

    def schedule_at(self, time, callback, args=()):
        assert time >= self.now
        handle = self.Handle()
        heapq.heappush(self._heap, (time, self._seq, handle, callback, args))
        self._seq += 1
        return handle

    def schedule_after(self, delay, callback, args=()):
        return self.schedule_at(self.now + delay, callback, args)

    def post(self, time, callback, *args):
        self.schedule_at(time, callback, args)

    def run_until(self, until=None, max_events=None):
        heap = self._heap
        while True:
            while heap and heap[0][2].cancelled:
                heapq.heappop(heap)
            if not heap or (until is not None and heap[0][0] > until):
                break
            if max_events is not None:
                if max_events == 0:
                    return  # an event is due but the budget is spent
                max_events -= 1
            time, _, _, callback, args = heapq.heappop(heap)
            self.now = time
            callback(*args)
        if until is not None and until > self.now:
            self.now = until


_DELAY_BANDS = (0.0, 1e-5, 3e-4, 0.05, 2.0, 120.0, FAR_S + 300.0)


class _Drive:
    """One seeded workload on one scheduler; every random draw comes from
    the workload's own generator, so two drives stay in lockstep exactly
    as long as their schedulers dispatch identically."""

    def __init__(self, seed, sched, clock=None):
        self.rng = rng = random.Random(seed)
        self.sched = sched
        self.clock = sched if clock is None else clock
        self.fired = []
        self.pending = []
        self.trigger = None  # (tag, SimEvent) fired by the watch case
        for tag in range(300):
            delay = rng.choice(_DELAY_BANDS) * rng.random()
            if rng.random() < 0.2:
                delay = round(delay, 3)  # force exact-time ties across events
            self.pending.append(sched.schedule_at(delay, self.fire, (tag,)))
        for index in range(0, len(self.pending), 7):
            self.pending[index].cancel()

    def fire(self, tag):
        sched, rng = self.sched, self.rng
        self.fired.append((self.clock.now, tag))
        if self.trigger is not None and self.trigger[0] == tag:
            self.trigger[1].succeed()
        roll = rng.random()
        if roll < 0.25:
            delay = rng.choice(_DELAY_BANDS) * rng.random()
            self.pending.append(sched.schedule_after(delay, self.fire, (tag * 31 + 7,)))
        elif roll < 0.35 and self.pending:
            self.pending.pop(rng.randrange(len(self.pending))).cancel()

    def state(self):
        return self.clock.now, self.fired, self.sched.pending_count


def _simulator_drive(seed):
    sim = Simulator()
    return _Drive(seed, sim._scheduler, clock=sim)


def _random_bounds(rng, now):
    """A random ``(until, max_events)`` chunk: either, both or neither."""
    shape = rng.randrange(4)
    until = now + rng.choice(_DELAY_BANDS) * rng.random() if shape & 1 else None
    max_events = rng.randrange(0, 40) if shape & 2 else None
    return until, max_events


def _differential(seed, wheel, heap):
    chunks = random.Random(seed ^ 0x5EED)
    for _ in range(400):
        until, max_events = _random_bounds(chunks, heap.sched.now)
        if until is None and max_events is None:
            max_events = 500  # an unbounded chunk would end the drive
        wheel.sched.run_until(until, max_events)
        heap.sched.run_until(until, max_events)
        # Same times, same order, same clock, same live count — bit-identical.
        assert wheel.state() == heap.state()
    wheel.sched.run_until(max_events=5000)
    heap.sched.run_until(max_events=5000)
    assert wheel.state() == heap.state()
    assert len(wheel.fired) > 250
    assert wheel.sched.executed_count == len(wheel.fired)


@pytest.mark.parametrize("seed", [1, 42, 20260806])
def test_differential_wheel_matches_heap_exactly(seed):
    _differential(seed, _Drive(seed, Scheduler()), _Drive(seed, HeapOracle()))


@pytest.mark.parametrize("seed", [1, 42, 20260806])
def test_differential_simulator_clock_matches_heap_exactly(seed):
    """``sim.now`` is the field the dispatch loop writes: read inside every
    callback and after every bounded run, it is the oracle's clock."""
    _differential(seed, _simulator_drive(seed), _Drive(seed, HeapOracle()))


def test_a_scheduler_built_for_a_clock_keeps_no_time_of_its_own():
    sim = Simulator()
    sim.post(2.5, lambda: None)
    sim.run(until=4.0)
    assert sim.now == 4.0
    with pytest.raises(AttributeError):
        sim._scheduler.now  # a second, stale clock would read 0.0


@pytest.mark.parametrize("seed", [1, 42, 20260806])
def test_watch_stops_the_instant_the_event_triggers(seed):
    wheel, heap = _Drive(seed, Scheduler()), _Drive(seed, HeapOracle())
    # Learn the dispatch order from the oracle and watch for an event that
    # still has same-instant siblings queued behind it.
    heap.sched.run_until(max_events=20)
    when, tag = heap.fired[-1]
    heap.sched.run_until(max_events=0)  # surfaces the next live entry
    assert heap.sched._heap[0][0] == when
    watch = SimEvent(None, "watched")
    wheel.trigger = (tag, watch)
    wheel.sched.run_until(until=when + 50.0, watch=watch)
    assert watch.triggered
    # Stopped on the triggering event: no sibling ran, and the clock sits
    # at its timestamp, not at ``until``.
    assert wheel.state() == heap.state()
    assert wheel.sched.now == when
    # Watching an event that never triggers: the run ends with the last
    # event at or before ``until`` and never advances the clock past it.
    until = when + 1e-3
    wheel.sched.run_until(until=until, watch=SimEvent(None, "never"))
    heap.sched.run_until(until=until)
    assert wheel.fired == heap.fired
    assert wheel.sched.now == heap.fired[-1][0] <= until


# The same contract as a state machine: hypothesis picks the interleaving
# of schedules (including at the current instant), handle-less posts (whose
# callbacks may cancel), cancels (direct and from inside a callback),
# tokens armed, re-armed (earlier or later), retired and re-posted from
# their own entry (a ``RestartableTimer`` finding its deadline moved),
# bounded runs and single steps, and shrinks a failure to the shortest one.
# The oracle posts through its own ``schedule_at``: a post must dispatch
# exactly where a scheduled event with the same key would; a token's arm
# is its previous handle's cancel and a new ``schedule_at``.

_DELAYS = st.sampled_from((0.0, 1e-5, 1e-4, 0.003, 0.5, 2.0, FAR_S + 300.0))


class _Token:
    """A queue token (``Scheduler.arm``): live entry ``seq``, or -1; on the
    oracle, the handle of its live entry instead."""

    def __init__(self, tag):
        self.tag = tag
        self.seq = -1
        self.handle = None
        self.repost = None  # a delay: the entry re-arms its token once


class _Side:
    """One queue under test plus what its callbacks recorded."""

    def __init__(self, sched, clock=None):
        self.sched = sched
        self.clock = sched if clock is None else clock
        self.fired = []
        self.handles = []
        self.tokens = []
        self.posted = 0

    def post(self, delay, victim=None):
        # No handle comes back, so a posted event is tagged from the
        # negative side and never chosen as a victim.
        self.posted += 1
        self.sched.post(self.clock.now + delay, self.fire, -self.posted, victim, None)

    def schedule(self, delay, victim=None, respawn=None):
        args = (len(self.handles), victim, respawn)
        self.handles.append(self.sched.schedule_after(delay, self.fire, args))

    def schedule_at_now(self):
        args = (len(self.handles), None, None)
        self.handles.append(self.sched.schedule_at(self.clock.now, self.fire, args))

    def fire(self, tag, victim, respawn):
        self.fired.append((self.clock.now, tag))
        if victim is not None:
            self.handles[victim].cancel()
        if respawn is not None:
            self.schedule(respawn)

    def arm(self, index, delay, repost=None):
        if index == len(self.tokens):
            self.tokens.append(_Token(f"token-{index}"))
        token = self.tokens[index]
        token.repost = repost
        time = self.clock.now + delay
        if isinstance(self.sched, HeapOracle):
            self.retire(index)
            token.handle = self.sched.schedule_at(time, self.fire_token, (token,))
        else:
            self.sched.arm(time, token, self.fire_token)

    def retire(self, index):
        token = self.tokens[index]
        if not isinstance(self.sched, HeapOracle):
            self.sched.retire(token)
        elif token.handle is not None:
            token.handle.cancel()

    def fire_token(self, token):
        self.fired.append((self.clock.now, token.tag))
        if token.repost is not None:
            self.arm(self.tokens.index(token), token.repost)

    def state(self):
        return self.clock.now, self.fired, self.sched.pending_count


class SchedulerAgainstOracle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        sim = Simulator()
        # A bare scheduler, a simulator's, and the oracle, which comes last.
        self.sides = (_Side(Scheduler()), _Side(sim._scheduler, clock=sim), _Side(HeapOracle()))

    @property
    def scheduled(self):
        return len(self.sides[0].handles)

    @rule(delay=_DELAYS)
    def schedule(self, delay):
        for side in self.sides:
            side.schedule(delay)

    @rule()
    def schedule_at_now(self):
        for side in self.sides:
            side.schedule_at_now()

    @rule(delay=_DELAYS, respawn=_DELAYS)
    def schedule_respawning(self, delay, respawn):
        for side in self.sides:
            side.schedule(delay, respawn=respawn)

    @rule(data=st.data(), delay=_DELAYS)
    def post(self, data, delay):
        victim = data.draw(st.none() | st.integers(0, self.scheduled - 1)) if self.scheduled else None
        for side in self.sides:
            side.post(delay, victim)

    @precondition(lambda self: self.scheduled)
    @rule(data=st.data())
    def cancel(self, data):
        index = data.draw(st.integers(0, self.scheduled - 1))
        for side in self.sides:
            side.handles[index].cancel()

    @rule(delay=_DELAYS, repost=st.none() | _DELAYS)
    def arm_token(self, delay, repost):
        for side in self.sides:
            side.arm(len(side.tokens), delay, repost)

    @precondition(lambda self: self.sides[0].tokens)
    @rule(data=st.data(), delay=_DELAYS, repost=st.none() | _DELAYS)
    def re_arm_token(self, data, delay, repost):
        index = data.draw(st.integers(0, len(self.sides[0].tokens) - 1))
        for side in self.sides:
            side.arm(index, delay, repost)

    @precondition(lambda self: self.sides[0].tokens)
    @rule(data=st.data())
    def retire_token(self, data):
        index = data.draw(st.integers(0, len(self.sides[0].tokens) - 1))
        for side in self.sides:
            side.retire(index)

    @precondition(lambda self: self.scheduled)
    @rule(data=st.data(), delay=_DELAYS)
    def schedule_cancelling_callback(self, data, delay):
        victim = data.draw(st.integers(0, self.scheduled - 1))
        for side in self.sides:
            side.schedule(delay, victim=victim)

    @rule(delay=_DELAYS, budget=st.none() | st.integers(0, 6))
    def run_until(self, delay, budget):
        for side in self.sides:
            side.sched.run_until(until=side.clock.now + delay, max_events=budget)

    @rule(budget=st.integers(0, 6))
    def run_max_events(self, budget):
        for side in self.sides:
            side.sched.run_until(max_events=budget)

    @rule()
    def step(self):
        *reals, oracle = self.sides
        before = len(oracle.fired)
        oracle.sched.run_until(max_events=1)
        for real in reals:
            assert real.sched.run_next() == (len(oracle.fired) > before)

    @invariant()
    def same_clock_order_and_live_count(self):
        *reals, oracle = self.sides
        for real in reals:
            assert real.state() == oracle.state()
            assert real.sched.executed_count == len(real.fired)


SchedulerAgainstOracle.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None, derandomize=True
)
test_state_machine_scheduler_matches_oracle = SchedulerAgainstOracle.TestCase
