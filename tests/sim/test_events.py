"""Tests for SimEvent, Timeout and event subscription."""

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
    assert event._callbacks is None  # no subscriber left


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


def test_a_sole_callback_is_held_without_a_list_and_order_holds(sim):
    event = sim.event()
    seen = []
    event.add_callback(seen.append)
    assert event._callbacks == seen.append
    event.discard_callback(seen.append)  # an equal bound method, not the same one
    assert event._callbacks is None
    for tag in "abc":
        event.add_callback(lambda e, tag=tag: seen.append(tag))
    assert isinstance(event._callbacks, list) and len(event._callbacks) == 3
    event.succeed()
    assert seen == ["a", "b", "c"]


def test_timeout_succeeds_after_delay(sim):
    timeout = sim.timeout(5.0, value="done")
    sim.run()
    assert timeout.triggered
    assert timeout.value == "done"
    assert sim.now == 5.0


def test_negative_timeout_rejected(sim):
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)
