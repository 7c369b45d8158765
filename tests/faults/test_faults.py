"""Tests for fault injection helpers."""

import pytest

from repro.faults.injection import (
    CrashInjector,
    add_tap_loss,
    add_tap_outage,
    clear_loss,
    partition_channel,
)
from repro.net.loss import RandomLoss, WindowLoss
from repro.sim.simulator import Simulator

from tests.conftest import LanPair


@pytest.fixture
def lan():
    return LanPair(Simulator(seed=71))


def test_crash_at_absolute_time(lan):
    injector = CrashInjector(lan.sim)
    injector.crash_at(lan.b, 2.5)
    lan.sim.run(until=2.0)
    assert lan.b.is_up
    lan.sim.run(until=3.0)
    assert not lan.b.is_up
    assert injector.crashes_performed == 1


def test_crash_after_delay(lan):
    injector = CrashInjector(lan.sim)
    lan.sim.run(until=1.0)
    injector.crash_after(lan.b, 0.5)
    lan.sim.run(until=2.0)
    assert lan.b.crashed_at == pytest.approx(1.5)


def test_cancel_all_scheduled_crashes(lan):
    injector = CrashInjector(lan.sim)
    injector.crash_at(lan.a, 1.0)
    injector.crash_at(lan.b, 1.0)
    injector.cancel_all()
    lan.sim.run(until=2.0)
    assert lan.a.is_up and lan.b.is_up


def test_add_tap_loss_installs_model(lan):
    rng = lan.sim.random.stream("x")
    model = add_tap_loss(lan.nic_b, rng, 0.5)
    assert lan.nic_b.rx_loss_model is model
    assert isinstance(model, RandomLoss)


def test_add_tap_outage_installs_window(lan):
    model = add_tap_outage(lan.nic_b, 1.0, 2.0)
    assert isinstance(model, WindowLoss)
    assert lan.nic_b.rx_loss_model is model


def test_clear_loss(lan):
    add_tap_outage(lan.nic_b, 1.0, 2.0)
    clear_loss(lan.nic_b)
    assert lan.nic_b.rx_loss_model is None
    partition_channel(lan.hub, 39000)
    clear_loss(lan.hub)
    assert lan.hub.loss_model is None


def test_partition_channel_drops_only_channel_traffic(lan):
    partition_channel(lan.hub, 39000)
    channel_received = []
    other_received = []
    chan = lan.b.udp.socket(39000)
    chan.on_datagram = lambda payload, addr: channel_received.append(payload)
    other = lan.b.udp.socket(5000)
    other.on_datagram = lambda payload, addr: other_received.append(payload)
    sender_chan = lan.a.udp.socket(39000)
    sender_other = lan.a.udp.socket(5001)
    sender_chan.send_to((lan.ip_b, 39000), b"hb")
    sender_other.send_to((lan.ip_b, 5000), b"data")
    lan.sim.run(until=1.0)
    assert channel_received == []
    assert len(other_received) == 1


# ---------------------------------------------------------------------------
# Arming/firing order and idempotency
# ---------------------------------------------------------------------------


def test_crashes_fire_in_time_order_regardless_of_arming_order(lan):
    injector = CrashInjector(lan.sim)
    injector.crash_at(lan.b, 2.0)  # armed first, fires second
    injector.crash_at(lan.a, 1.0)
    lan.sim.run(until=3.0)
    assert lan.a.crashed_at == pytest.approx(1.0)
    assert lan.b.crashed_at == pytest.approx(2.0)
    assert injector.crashes_performed == 2


def test_rearming_a_crash_is_idempotent(lan):
    injector = CrashInjector(lan.sim)
    injector.crash_at(lan.b, 1.0)
    injector.crash_at(lan.b, 1.5)  # second crash of a dead host: no-op
    lan.sim.run(until=2.0)
    assert injector.crashes_performed == 2
    assert lan.b.crashed_at == pytest.approx(1.0)  # first crash time sticks
    assert not lan.b.is_up


def test_cancel_all_clears_the_schedule_for_reuse(lan):
    injector = CrashInjector(lan.sim)
    injector.crash_at(lan.a, 1.0)
    injector.cancel_all()
    assert injector.scheduled == []
    injector.crash_at(lan.a, 2.0)  # re-arming after cancel works
    lan.sim.run(until=3.0)
    assert injector.crashes_performed == 1


# ---------------------------------------------------------------------------
# Drill-DSL fault binding
# ---------------------------------------------------------------------------


def test_apply_drill_fault_rejects_unknown_name(lan):
    from repro.faults.injection import apply_drill_fault

    class Env:
        sim = lan.sim

    with pytest.raises(ValueError, match="unknown fault 'typo'.*primary_crash"):
        apply_drill_fault("typo", Env(), 1.0)


def test_apply_drill_fault_requires_matching_topology(lan):
    from repro.faults.injection import apply_drill_fault

    class Env:  # a server-mode env: no primary/backup pair
        sim = lan.sim
        crash_injector = CrashInjector(lan.sim)
        primary = None

    with pytest.raises(ValueError, match="sttcp mode"):
        apply_drill_fault("tap_outage", Env(), 1.0)


def test_drill_fault_crashes_the_bound_host(lan):
    from repro.faults.injection import apply_drill_fault

    class Env:
        sim = lan.sim
        crash_injector = CrashInjector(lan.sim)
        primary = lan.b

    apply_drill_fault("primary_crash", Env(), 0.5)
    lan.sim.run(until=1.0)
    assert lan.b.crashed_at == pytest.approx(0.5)


def test_drill_fault_registry_covers_the_documented_set():
    from repro.faults.injection import DRILL_FAULTS

    assert {
        "primary_crash",
        "backup_crash",
        "hut_crash",
        "tap_outage",
        "tap_loss",
        "channel_partition",
        "channel_partition_oneway",
        "channel_heal",
        "power_kill",
    } <= set(DRILL_FAULTS)


def test_partition_channel_oneway_drops_only_senders_direction(lan):
    from repro.faults.injection import partition_channel_oneway

    partition_channel_oneway(lan.hub, 39000, lan.ip_a)
    at_a, at_b = [], []
    lan.a.udp.socket(39000).on_datagram = lambda payload, addr: at_a.append(payload)
    lan.b.udp.socket(39000).on_datagram = lambda payload, addr: at_b.append(payload)
    lan.a.udp.socket(5001).send_to((lan.ip_b, 39000), b"a-to-b")
    lan.b.udp.socket(5002).send_to((lan.ip_a, 39000), b"b-to-a")
    lan.sim.run(until=1.0)
    assert at_b == []  # host a's channel frames are partitioned away
    assert len(at_a) == 1  # the reverse direction still flows


def test_power_kill_fault_fences_the_named_host(lan):
    from repro.faults.injection import apply_drill_fault
    from repro.sttcp.power_switch import PowerSwitch

    switch = PowerSwitch(lan.sim, actuation_delay=0.010)

    class Env:
        sim = lan.sim
        power_switch = switch
        primary = lan.a
        backup = lan.b

    apply_drill_fault("power_kill", Env(), 0.5, host="backup")
    lan.sim.run(until=0.505)
    assert lan.b.is_up  # relay has not actuated yet
    lan.sim.run(until=1.0)
    assert not lan.b.is_up
    assert lan.a.is_up
    assert switch.cuts_performed == 1
    assert lan.b.crashed_at == pytest.approx(0.510)


def test_power_kill_fault_requires_a_power_switch(lan):
    from repro.faults.injection import apply_drill_fault

    class Env:
        sim = lan.sim
        power_switch = None
        primary = lan.a

    with pytest.raises(ValueError, match="power_kill.*power_switch"):
        apply_drill_fault("power_kill", Env(), 1.0)
