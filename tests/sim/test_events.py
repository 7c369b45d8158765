"""Tests for SimEvent and the AnyOf/AllOf combinators."""

import pytest

from repro.errors import SimulationError
from repro.sim.simulator import Simulator


@pytest.fixture
def sim():
    return Simulator(seed=0)


def test_event_starts_untriggered(sim):
    event = sim.event("e")
    assert not event.triggered
    with pytest.raises(SimulationError):
        _ = event.value


def test_succeed_delivers_value(sim):
    event = sim.event()
    event.succeed(42)
    assert event.triggered
    assert event.ok
    assert event.value == 42


def test_fail_raises_on_value_access(sim):
    event = sim.event()
    event.fail(ValueError("boom"))
    assert event.triggered
    assert not event.ok
    with pytest.raises(ValueError):
        _ = event.value


def test_double_trigger_rejected(sim):
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)
    with pytest.raises(SimulationError):
        event.fail(RuntimeError("x"))
    assert event.value == 1
    failed = sim.event()
    failed.fail(RuntimeError("first"))
    with pytest.raises(SimulationError):
        failed.fail(RuntimeError("second"))
    with pytest.raises(SimulationError):
        failed.succeed(1)
    assert str(failed.exception) == "first"


@pytest.mark.parametrize("outcome", ["succeed", "fail"])
def test_callback_added_while_triggering_runs_exactly_once(sim, outcome):
    event = sim.event()
    late = []

    def add_another(e):
        e.add_callback(late.append)

    event.add_callback(add_another)
    if outcome == "succeed":
        event.succeed("v")
    else:
        event.fail(RuntimeError("x"))
    assert late == [event]
    assert not event._callbacks  # no subscriber left


def test_fail_requires_exception(sim):
    event = sim.event()
    with pytest.raises(TypeError):
        event.fail("not an exception")


def test_callbacks_fire_on_trigger(sim):
    event = sim.event()
    seen = []
    event.add_callback(lambda e: seen.append(e.value))
    event.succeed("hello")
    assert seen == ["hello"]


def test_callback_on_already_triggered_event_fires_immediately(sim):
    event = sim.event()
    event.succeed(7)
    seen = []
    event.add_callback(lambda e: seen.append(e.value))
    assert seen == [7]


def test_discard_callback(sim):
    event = sim.event()
    seen = []
    callback = lambda e: seen.append(1)
    event.add_callback(callback)
    event.discard_callback(callback)
    event.succeed()
    assert seen == []


def test_timeout_succeeds_after_delay(sim):
    timeout = sim.timeout(5.0, value="done")
    sim.run()
    assert timeout.triggered
    assert timeout.value == "done"
    assert sim.now == 5.0


def test_negative_timeout_rejected(sim):
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_any_of_first_wins(sim):
    fast = sim.timeout(1.0, "fast")
    slow = sim.timeout(2.0, "slow")
    combined = sim.any_of([slow, fast])
    sim.run()
    index, winner = combined.value
    assert winner is fast
    assert index == 1


def test_any_of_failure_propagates(sim):
    failing = sim.event()
    other = sim.timeout(10.0)
    combined = sim.any_of([failing, other])
    failing.fail(RuntimeError("bad"))
    assert combined.triggered
    with pytest.raises(RuntimeError):
        _ = combined.value


def test_any_of_requires_events(sim):
    with pytest.raises(SimulationError):
        sim.any_of([])


def test_any_of_reports_index_of_middle_event(sim):
    events = [sim.event(), sim.event(), sim.event()]
    combined = sim.any_of(events)
    events[1].succeed("mid")
    assert combined.value == (1, events[1])


def test_any_of_unsubscribes_losers(sim):
    events = [sim.event(), sim.event(), sim.event()]
    combined = sim.any_of(events)
    events[2].succeed("winner")
    # The losers' callbacks were discarded, so triggering them later
    # neither re-triggers the combinator nor raises.
    assert not any(event._callbacks for event in events)  # no subscriber left
    events[0].succeed("late")
    assert combined.value == (2, events[2])


def test_any_of_duplicate_event_wins_lowest_index(sim):
    shared = sim.event()
    combined = sim.any_of([shared, shared])
    shared.succeed("once")
    index, winner = combined.value
    assert winner is shared
    assert index == 0


def test_all_of_collects_values_in_order(sim):
    first = sim.timeout(2.0, "a")
    second = sim.timeout(1.0, "b")
    combined = sim.all_of([first, second])
    sim.run()
    assert combined.value == ["a", "b"]


def test_all_of_empty_succeeds_immediately(sim):
    combined = sim.all_of([])
    assert combined.triggered
    assert combined.value == []


def test_all_of_fails_fast(sim):
    bad = sim.event()
    never = sim.event()
    combined = sim.all_of([bad, never])
    bad.fail(KeyError("k"))
    assert combined.triggered
    assert not combined.ok
