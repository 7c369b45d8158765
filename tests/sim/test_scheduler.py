"""Tests for the event scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.scheduler import Scheduler
from repro.sim.simulator import Simulator
from repro.tcp.timers import RestartableTimer


def test_starts_at_time_zero():
    scheduler = Scheduler()
    assert scheduler.now == 0.0
    assert scheduler.pending_count == 0


def test_runs_events_in_time_order():
    scheduler = Scheduler()
    order = []
    scheduler.schedule_at(2.0, order.append, (2,))
    scheduler.schedule_at(1.0, order.append, (1,))
    scheduler.schedule_at(3.0, order.append, (3,))
    scheduler.run_until()
    assert order == [1, 2, 3]
    assert scheduler.now == 3.0


def test_same_time_events_run_in_insertion_order():
    scheduler = Scheduler()
    order = []
    for value in range(5):
        scheduler.schedule_at(1.0, order.append, (value,))
    scheduler.run_until()
    assert order == [0, 1, 2, 3, 4]


def test_cannot_schedule_in_the_past():
    scheduler = Scheduler()
    scheduler.schedule_at(5.0, lambda: None)
    scheduler.run_until()
    with pytest.raises(SimulationError):
        scheduler.schedule_at(1.0, lambda: None)


def test_cancelled_events_do_not_run():
    scheduler = Scheduler()
    ran = []
    handle = scheduler.schedule_at(1.0, ran.append, (1,))
    handle.cancel()
    scheduler.run_until()
    assert ran == []
    assert handle.cancelled


def test_cancel_is_idempotent():
    scheduler = Scheduler()
    handle = scheduler.schedule_at(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert handle.cancelled


def test_run_until_time_bound_advances_clock_exactly():
    scheduler = Scheduler()
    ran = []
    scheduler.schedule_at(1.0, ran.append, (1,))
    scheduler.schedule_at(10.0, ran.append, (10,))
    scheduler.run_until(until=5.0)
    assert ran == [1]
    assert scheduler.now == 5.0
    scheduler.run_until(until=10.0)
    assert ran == [1, 10]


def test_run_until_max_events():
    scheduler = Scheduler()
    ran = []
    for value in range(10):
        scheduler.schedule_at(float(value), ran.append, (value,))
    scheduler.run_until(max_events=3)
    assert ran == [0, 1, 2]


def test_run_until_nan_is_a_typed_error():
    # ``time > nan`` is never true: unchecked, the run would drain the queue.
    sim = Simulator()
    ran = []
    sim.schedule(1.0, ran.append, 1)
    with pytest.raises(SimulationError, match="until=nan"):
        sim.run(until=float("nan"))
    assert ran == [] and sim.now == 0.0
    assert sim._scheduler.pending_count == 1


def test_run_until_negative_max_events_is_a_typed_error():
    # A negative budget would read as "no limit".
    scheduler = Scheduler()
    ran = []
    for value in range(3):
        scheduler.schedule_at(float(value), ran.append, (value,))
    with pytest.raises(SimulationError, match="max_events"):
        scheduler.run_until(max_events=-2)
    assert ran == [] and scheduler.now == 0.0
    scheduler.run_until(max_events=0)  # a zero budget runs nothing
    assert ran == []


def test_events_scheduled_during_execution_run():
    scheduler = Scheduler()
    order = []

    def outer():
        order.append("outer")
        scheduler.schedule_at(scheduler.now + 1.0, lambda: order.append("inner"))

    scheduler.schedule_at(1.0, outer)
    scheduler.run_until()
    assert order == ["outer", "inner"]
    assert scheduler.now == 2.0


def test_peek_time_skips_cancelled():
    scheduler = Scheduler()
    first = scheduler.schedule_at(1.0, lambda: None)
    scheduler.schedule_at(2.0, lambda: None)
    first.cancel()
    assert scheduler.peek_time() == 2.0


def test_heap_compaction_with_many_cancellations():
    scheduler = Scheduler()
    handles = [scheduler.schedule_at(1.0 + i, lambda: None) for i in range(10000)]
    for handle in handles[:9000]:
        handle.cancel()
    survivor_ran = []
    scheduler.schedule_at(0.5, survivor_ran.append, (True,))
    scheduler.run_until(until=0.6)
    assert survivor_ran == [True]
    assert scheduler.pending_count == 1000


def test_executed_count():
    scheduler = Scheduler()
    for i in range(5):
        scheduler.schedule_at(float(i), lambda: None)
    scheduler.run_until()
    assert scheduler.executed_count == 5


def test_run_next_before_respects_bound():
    scheduler = Scheduler()
    ran = []
    scheduler.schedule_at(1.0, ran.append, (1,))
    scheduler.schedule_at(3.0, ran.append, (3,))
    assert scheduler.run_next_before(2.0)
    assert ran == [1]
    assert scheduler.now == 1.0
    # Next live event is past the bound: nothing runs, clock holds.
    assert not scheduler.run_next_before(2.0)
    assert ran == [1]
    assert scheduler.now == 1.0
    # Unbounded call executes it.
    assert scheduler.run_next_before(None)
    assert ran == [1, 3]


def test_run_next_before_skips_cancelled_prefix():
    scheduler = Scheduler()
    ran = []
    doomed = [scheduler.schedule_at(1.0 + i, ran.append, (i,)) for i in range(5)]
    scheduler.schedule_at(9.0, ran.append, ("live",))
    for handle in doomed:
        handle.cancel()
    assert not scheduler.run_next_before(8.0)
    assert scheduler.run_next_before(10.0)
    assert ran == ["live"]
    assert not scheduler.run_next_before(10.0)  # queue now empty


def test_heap_compacts_on_dead_fraction():
    scheduler = Scheduler()
    base = Scheduler.GC_BASE_THRESHOLD
    total = base + 2
    handles = [scheduler.schedule_at(1.0 + i, lambda: None) for i in range(total)]
    assert len(scheduler._heap) == total
    # Cancelling just under half leaves the heap uncompacted (dead
    # fraction below one half)...
    for handle in handles[: total // 2 - 1]:
        handle.cancel()
    assert len(scheduler._heap) == total
    # ...one more cancellation tips the fraction and triggers the rebuild.
    handles[total // 2].cancel()
    assert len(scheduler._heap) == scheduler.pending_count == total // 2
    scheduler.run_until()
    assert scheduler.executed_count == total // 2


def test_pending_count_is_live_entries_only():
    scheduler = Scheduler()
    # Mix near and far events, then cancel across both.
    near = [scheduler.schedule_at(0.001 * i, lambda: None) for i in range(10)]
    far = [scheduler.schedule_at(10_000.0 + i, lambda: None) for i in range(10)]
    assert scheduler.pending_count == 20
    near[0].cancel()
    far[0].cancel()
    far[0].cancel()  # idempotent: no double decrement
    assert scheduler.pending_count == 18
    scheduler.run_until(until=1.0)
    assert scheduler.pending_count == 9


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("entry", ["schedule", "timer", "schedule_at", "post"])
def test_non_finite_event_time_is_a_typed_error(entry, bad):
    # A nan or inf event would fire and leave the clock at nan / inf.
    # ``timer`` arms a token (``Scheduler.arm``), unchecked but for this.
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run(until=0.5)
    with pytest.raises(SimulationError, match="event time must be finite"):
        if entry == "timer":
            RestartableTimer(sim, lambda: None).start(bad)
        else:
            getattr(sim, entry)(bad, lambda: None)
    assert sim.now == 0.5
    assert sim._scheduler.pending_count == 1
    sim.run()
    assert sim.now == 1.0


def test_post_before_now_is_a_typed_error():
    scheduler = Scheduler()
    scheduler.schedule_at(5.0, lambda: None)
    scheduler.run_until()
    with pytest.raises(SimulationError, match="not before now"):
        scheduler.post(4.999, lambda: None)
    assert scheduler.pending_count == 0 and not scheduler._heap
    scheduler.post(5.0, lambda: None)  # the current instant is allowed
    assert scheduler.pending_count == 1


def test_post_returns_no_handle_and_shares_the_seq_order():
    scheduler = Scheduler()
    order = []
    scheduler.schedule_at(1.0, order.append, ("scheduled-1",))
    assert scheduler.post(1.0, order.append, "posted") is None
    scheduler.schedule_at(1.0, order.append, ("scheduled-2",))
    scheduler.run_until()
    assert order == ["scheduled-1", "posted", "scheduled-2"]
    assert scheduler.executed_count == 3


def test_pending_count_counts_posted_entries():
    scheduler = Scheduler()
    scheduler.post(1.0, lambda: None)
    handle = scheduler.schedule_at(2.0, lambda: None)
    scheduler.post(3.0, lambda: None)
    assert scheduler.pending_count == 3
    handle.cancel()
    assert scheduler.pending_count == 2
    scheduler.run_until(until=1.5)
    assert scheduler.pending_count == 1


def test_peek_time_with_a_posted_head():
    scheduler = Scheduler()
    cancelled = scheduler.schedule_at(0.5, lambda: None)
    scheduler.post(1.0, lambda: None)
    scheduler.schedule_at(2.0, lambda: None)
    cancelled.cancel()
    assert scheduler.peek_time() == 1.0  # skips the dead entry, stops at the post
    assert scheduler._heap[0][2] is None
    assert scheduler.run_next_before(1.0)
    assert scheduler.peek_time() == 2.0


def test_compaction_keeps_posted_entries():
    scheduler = Scheduler()
    ran = []
    total = Scheduler.GC_BASE_THRESHOLD + 2
    handles = [scheduler.schedule_at(10.0 + i, lambda: None) for i in range(total)]
    for index in range(20):
        scheduler.post(1.0 + index, ran.append, index)
    for handle in handles:
        handle.cancel()
    # The dead fraction passed one half: the heap was rebuilt live-only,
    # and the posted entries (no handle to be cancelled) are what is live.
    assert len(scheduler._heap) < total
    assert scheduler.pending_count == 20
    scheduler.run_until()
    assert ran == list(range(20))


def test_cancel_and_rearm_keeps_the_heap_bounded():
    # The RTO pattern: every event (an ACK) cancels the retransmission
    # timer and re-arms it 1 s out.  Uncompacted, 10 000 dead timers would
    # sit ahead of the clock at any instant; only the last arming may fire.
    scheduler = Scheduler()
    floor = Scheduler.GC_BASE_THRESHOLD
    total = 100_000
    fired = []
    timer = [scheduler.schedule_after(1.0, fired.append, ("never",))]
    worst = [0]

    def ack(index):
        timer[0].cancel()
        timer[0] = scheduler.schedule_after(1.0, fired.append, (index,))
        bound = max(floor, 2 * scheduler.pending_count) + 1
        worst[0] = max(worst[0], len(scheduler._heap) - bound)
        if index + 1 < total:
            scheduler.schedule_after(1e-4, ack, (index + 1,))

    scheduler.schedule_at(0.0, ack, (0,))
    scheduler.run_until()
    assert worst[0] <= 0
    assert fired == [total - 1]
    assert scheduler.executed_count == total + 1
    assert scheduler.pending_count == 0 and not scheduler._heap


class _SmallHeapScheduler(Scheduler):
    """A compaction floor a generated sequence can cross."""

    GC_BASE_THRESHOLD = 6


_QUEUE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("post"), st.floats(0.0, 2.0)),
        st.tuples(st.just("schedule_at"), st.floats(0.0, 2.0)),
        st.tuples(st.just("cancel"), st.integers(0, 63)),
        st.tuples(st.just("run_until"), st.floats(0.0, 0.5)),
        st.tuples(st.just("peek_time"), st.none()),
    ),
    max_size=80,
)


@settings(max_examples=300, deadline=None)
@given(ops=_QUEUE_OPS)
def test_prop_pending_count_and_compaction_follow_the_live_entries(ops):
    """``pending_count`` is the number of live entries whatever mix of
    posts, handles, cancellations, runs and peeks led there, and a cancel
    compacts the heap exactly when more than the floor's worth of entries
    is queued and at most half of them are live (the rule as first
    written, on a live count: ``size > floor and live * 2 <= size``)."""
    sched = _SmallHeapScheduler()
    handles = []  # every handle ever made, fired or not
    live = set()  # ids of handles queued and not cancelled
    posted = []  # times of posted entries not yet run

    def fire(handle_id):
        live.discard(handle_id)

    def ran(time):
        posted.remove(time)

    for op, arg in ops:
        if op == "post":
            time = sched.now + arg
            posted.append(time)
            sched.post(time, ran, time)
        elif op == "schedule_at":
            handle_id = len(handles)
            handles.append(sched.schedule_at(sched.now + arg, fire, (handle_id,)))
            live.add(handle_id)
        elif op == "cancel" and handles:
            handle_id = arg % len(handles)
            size = len(sched._heap)
            queued = handle_id in live
            handles[handle_id].cancel()
            live.discard(handle_id)
            remaining = len(live) + len(posted)
            compacts = queued and size > sched.GC_BASE_THRESHOLD and remaining * 2 <= size
            assert len(sched._heap) == (remaining if compacts else size)
        elif op == "run_until":
            sched.run_until(until=sched.now + arg)
        elif op == "peek_time":
            sched.peek_time()
        assert sched.pending_count == len(live) + len(posted)
    sched.run_until()
    assert sched.pending_count == 0 and not live and not posted
