"""Tests for coroutine processes."""

import pytest

from repro.errors import ProcessError
from repro.sim.simulator import Simulator


@pytest.fixture
def sim():
    return Simulator(seed=0)


def test_process_runs_and_returns_value(sim):
    def worker():
        yield sim.timeout(1.0)
        return "result"

    process = sim.spawn(worker())
    sim.run()
    assert process.triggered
    assert process.value == "result"
    assert sim.now == 1.0


def test_process_receives_event_values(sim):
    def worker():
        value = yield sim.timeout(1.0, value=99)
        return value

    process = sim.spawn(worker())
    sim.run()
    assert process.value == 99


def test_processes_can_join_each_other(sim):
    def child():
        yield sim.timeout(2.0)
        return "child-done"

    def parent():
        result = yield sim.spawn(child())
        return f"saw {result}"

    process = sim.spawn(parent())
    sim.run()
    assert process.value == "saw child-done"


def test_failed_event_raises_inside_process(sim):
    event = sim.event()

    def worker():
        try:
            yield event
        except RuntimeError as exc:
            return f"caught {exc}"

    process = sim.spawn(worker())
    sim.schedule(1.0, event.fail, RuntimeError("injected"))
    sim.run()
    assert process.value == "caught injected"


def test_uncaught_exception_fails_joiners(sim):
    def bad():
        yield sim.timeout(1.0)
        raise ValueError("oops")

    def parent():
        try:
            yield sim.spawn(bad())
        except ValueError:
            return "propagated"

    process = sim.spawn(parent())
    sim.run()
    assert process.value == "propagated"


def test_uncaught_exception_without_joiner_surfaces(sim):
    def bad():
        yield sim.timeout(1.0)
        raise ValueError("unobserved")

    process = sim.spawn(bad())
    with pytest.raises(ValueError, match="unobserved"):
        sim.run()
    assert sim.now == 1.0
    assert process._done and process.ok  # ended, with nothing left to re-raise
    sim.run()
    process.kill()  # a finished process ignores kill


def test_yielding_non_event_is_an_error(sim):
    def wrong():
        yield 42

    sim.spawn(wrong())
    with pytest.raises(ProcessError):
        sim.run()


def test_kill_terminates_without_result(sim):
    log = []

    def worker():
        try:
            yield sim.timeout(100.0)
        finally:
            log.append("cleanup")

    process = sim.spawn(worker())
    sim.run(until=1.0)
    process.kill()
    assert process.triggered
    assert log == ["cleanup"]


def test_spawn_requires_generator(sim):
    with pytest.raises(ProcessError):
        sim.spawn(lambda: None)


def test_yield_already_triggered_event_does_not_recurse(sim):
    """A long chain of immediately-ready events must not blow the stack."""
    def worker():
        for _ in range(5000):
            event = sim.event()
            event.succeed(1)
            yield event
        return "ok"

    process = sim.spawn(worker())
    sim.run()
    assert process.value == "ok"


def test_yield_already_triggered_event_resumes_from_the_queue(sim):
    """A target that has triggered already resumes the process through the
    queue, behind whatever was queued before it — never inside the yield."""
    order = []
    ready = sim.event()
    ready.succeed("ready")

    def worker():
        sim.post(sim.now, order.append, "queued before the yield")
        value = yield ready
        order.append(f"resumed {value} at {sim.now}")

    sim.spawn(worker())
    sim.run(max_events=1)  # the first step only: it ends at the yield
    assert order == []
    sim.run()
    assert order == ["queued before the yield", "resumed ready at 0.0"]


def test_resume_on_trigger_runs_inside_succeed(sim):
    """A process waiting on a pending event is stepped by ``succeed``."""
    event = sim.event()
    seen = []

    def worker():
        seen.append((yield event))

    process = sim.spawn(worker())
    sim.run()
    assert seen == []
    event.succeed("now")
    assert seen == ["now"]
    assert process._done and process.value is None


def test_a_finished_process_holds_no_event(sim):
    closed = sim.event()

    def worker():
        yield closed

    process = sim.spawn(worker())
    sim.run()
    assert process._waiting_on is closed
    closed.succeed("a socket, say")
    assert process._done and process._waiting_on is None


def test_kill_detaches_from_the_awaited_event(sim):
    event = sim.event()

    def worker():
        yield event
        raise AssertionError("a killed process never resumes")

    process = sim.spawn(worker())
    sim.run()
    assert event._callbacks is process  # a sole waiter is held as itself
    process.kill()
    assert event._callbacks is None
    event.succeed()


def test_a_second_waiter_makes_a_list_in_subscription_order(sim):
    event = sim.event()
    order = []

    def worker(name):
        order.append((name, (yield event)))

    first = sim.spawn(worker("first"))
    second = sim.spawn(worker("second"))
    sim.run()
    assert event._callbacks == [first, second]
    first.kill()
    assert event._callbacks == [second]
    event.succeed("v")
    assert order == [("second", "v")]
    assert event._callbacks is None


def test_kill_with_a_queued_resume_never_steps_again(sim):
    ready = sim.event()
    ready.succeed()
    steps = []

    def worker():
        steps.append("first")
        yield ready
        steps.append("second")

    process = sim.spawn(worker())
    sim.run(max_events=1)
    process.kill()  # its resume for ``ready`` is still queued
    sim.run()
    assert steps == ["first"]
