"""Tests for fault plans and the loss models they install."""

import types

import pytest

from repro.errors import ConfigurationError
from repro.faults.injection import (
    DRILL_FAULTS,
    FaultPlan,
    add_tap_loss,
    add_tap_outage,
    clear_loss,
    partition_channel,
    partition_channel_oneway,
)
from repro.net.loss import RandomLoss, WindowLoss
from repro.sim.simulator import Simulator

from tests.conftest import LanPair


@pytest.fixture
def lan():
    return LanPair(Simulator(seed=71))


def _env(lan, **roles):
    """What a plan reads off a topology: ``sim`` plus the named roles."""
    return types.SimpleNamespace(sim=lan.sim, **roles)


def test_crash_at_absolute_time(lan):
    FaultPlan([(2.5, "primary_crash")]).arm(_env(lan, primary=lan.b))
    lan.sim.run(until=2.0)
    assert lan.b.is_up
    lan.sim.run(until=3.0)
    assert not lan.b.is_up
    assert lan.b.crashed_at == pytest.approx(2.5)


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
# Arming and firing
# ---------------------------------------------------------------------------


def test_crashes_fire_in_time_order_regardless_of_arming_order(lan):
    plan = FaultPlan([(2.0, "backup_crash"), (1.0, "primary_crash")])  # armed first, fires second
    plan.arm(_env(lan, primary=lan.a, backup=lan.b))
    lan.sim.run(until=3.0)
    assert lan.a.crashed_at == pytest.approx(1.0)
    assert lan.b.crashed_at == pytest.approx(2.0)


def test_rearming_a_crash_is_idempotent(lan):
    # The second crash of a dead host is a no-op.
    FaultPlan([(1.0, "primary_crash"), (1.5, "primary_crash")]).arm(_env(lan, primary=lan.b))
    lan.sim.run(until=2.0)
    assert lan.b.crashed_at == pytest.approx(1.0)  # first crash time sticks
    assert not lan.b.is_up


def test_a_crash_entry_is_one_queue_entry_that_finds_its_host_when_it_fires(lan):
    """A crash follows its role to whichever host holds it at the crash
    instant (a re-elected primary), and costs one queue entry."""
    env = _env(lan, primary=lan.a)
    queued = lan.sim._scheduler.pending_count
    FaultPlan([(1.0, "primary_crash")]).arm(env)
    assert lan.sim._scheduler.pending_count == queued + 1
    env.primary = lan.b
    lan.sim.run(until=2.0)
    assert lan.a.is_up and not lan.b.is_up


def test_an_entry_whose_time_has_come_applies_when_armed(lan):
    """A loss armed at its own instant sees the very next frame: nothing
    is queued for it."""
    lan.sim.run(until=0.5)
    queued = lan.sim._scheduler.pending_count
    FaultPlan([(0.5, "tap_loss", {"rate": 0.25})]).arm(_env(lan, backup=lan.b))
    assert isinstance(lan.nic_b.rx_loss_model, RandomLoss)
    assert lan.sim._scheduler.pending_count == queued


def test_a_plan_repr_pastes_back_into_a_plan():
    plan = FaultPlan([(0.1 + 0.2, "primary_crash"), (0.15, "tap_outage", {"duration": 0.1})])
    assert repr(plan) == (
        "FaultPlan([(0.30000000000000004, 'primary_crash', {}), "
        "(0.15, 'tap_outage', {'duration': 0.1})])"
    )
    assert eval(repr(plan), {"FaultPlan": FaultPlan}) == plan  # noqa: S307 - the contract under test


def test_apply_drill_fault_rejects_unknown_name(lan):
    message = r"fault \(1.0, 'typo', \{\}\): unknown fault 'typo'.*primary_crash"
    with pytest.raises(ConfigurationError, match=message):
        FaultPlan([(1.0, "typo")]).arm(_env(lan))


def test_apply_drill_fault_requires_matching_topology(lan):
    # A server-mode drill: one host under test, no backup to tap.
    with pytest.raises(ConfigurationError, match=r"'tap_outage'.*no 'backup'"):
        FaultPlan([(1.0, "tap_outage")]).arm(_env(lan, primary=lan.a, backup=None))
    with pytest.raises(ConfigurationError, match=r"'tap_outage'.*unexpected keyword"):
        FaultPlan([(1.0, "tap_outage", {"until": 2.0})]).arm(_env(lan, backup=lan.b))


def test_drill_fault_crashes_the_bound_host(lan):
    FaultPlan([(0.5, "primary_crash")]).arm(_env(lan, primary=lan.b))
    lan.sim.run(until=1.0)
    assert lan.b.crashed_at == pytest.approx(0.5)


def test_drill_fault_registry_covers_the_documented_set():
    assert set(DRILL_FAULTS) == {
        "primary_crash",
        "backup_crash",
        "tap_outage",
        "tap_loss",
        "channel_partition",
        "channel_partition_oneway",
        "channel_heal",
        "power_kill",
        "cluster_crash",
        "cluster_partition_oneway",
    }


def test_partition_channel_oneway_drops_only_senders_direction(lan):
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
    from repro.sttcp.power_switch import PowerSwitch

    switch = PowerSwitch(lan.sim, actuation_delay=0.010)
    env = _env(lan, power_switch=switch, primary=lan.a, backup=lan.b)
    FaultPlan([(0.5, "power_kill", {"host": "backup"})]).arm(env)
    lan.sim.run(until=0.505)
    assert lan.b.is_up  # relay has not actuated yet
    lan.sim.run(until=1.0)
    assert not lan.b.is_up
    assert lan.a.is_up
    assert switch.cuts_performed == 1
    assert lan.b.crashed_at == pytest.approx(0.510)


def test_power_kill_fault_requires_a_power_switch(lan):
    with pytest.raises(ConfigurationError, match="power_kill.*power_switch"):
        FaultPlan([(1.0, "power_kill")]).arm(_env(lan, power_switch=None, primary=lan.a))
