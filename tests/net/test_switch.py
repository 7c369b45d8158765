"""Tests for the learning switch: forwarding, multicast groups, mirroring."""

import pytest

from repro.errors import NetworkError
from repro.net.addresses import MAC_BROADCAST, MACAddress, fresh_multicast_mac, fresh_unicast_mac
from repro.net.frame import ETHERTYPE_IPV4, EthernetFrame
from repro.net.medium import Cable, FrameReceiver
from repro.net.switch import Switch
from repro.sim.simulator import Simulator
from repro.util.units import mbps


class Station(FrameReceiver):
    def __init__(self, sim, switch):
        self.sim = sim
        self.mac = fresh_unicast_mac()
        self.received = []
        self.port = switch.new_port()
        self.cable = Cable(sim, self, self.port, rate_bps=mbps(100))

    def receive_frame(self, frame):
        self.received.append(frame)

    def send(self, dst_mac, size=500):
        frame = EthernetFrame(dst_mac, self.mac, ETHERTYPE_IPV4, None, size)
        self.cable.attachment_a.send(frame)
        return frame


@pytest.fixture
def fabric():
    sim = Simulator()
    switch = Switch(sim)
    stations = [Station(sim, switch) for _ in range(4)]
    return sim, switch, stations


def test_unknown_unicast_floods(fabric):
    sim, switch, stations = fabric
    stations[0].send(fresh_unicast_mac())
    sim.run()
    assert all(len(s.received) == 1 for s in stations[1:])
    assert switch.frames_flooded == 1


def test_learning_forwards_to_single_port(fabric):
    sim, switch, stations = fabric
    a, b, c, d = stations
    # b talks first so the switch learns b's port.
    b.send(a.mac)
    sim.run()
    a.received.clear()
    c.received.clear()
    d.received.clear()
    a.send(b.mac)
    sim.run()
    assert len(b.received) == 1
    assert c.received == [] and d.received == []


def test_broadcast_reaches_everyone(fabric):
    sim, switch, stations = fabric
    stations[0].send(MAC_BROADCAST)
    sim.run()
    assert all(len(s.received) == 1 for s in stations[1:])
    assert stations[0].received == []


def test_registered_multicast_goes_to_group_only(fabric):
    sim, switch, stations = fabric
    a, b, c, d = stations
    group = fresh_multicast_mac()
    switch.join_multicast(group, b.port)
    switch.join_multicast(group, c.port)
    a.send(group)
    sim.run()
    assert len(b.received) == 1
    assert len(c.received) == 1
    assert d.received == []


def test_unregistered_multicast_floods(fabric):
    sim, switch, stations = fabric
    stations[0].send(fresh_multicast_mac())
    sim.run()
    assert all(len(s.received) == 1 for s in stations[1:])


def test_leave_multicast(fabric):
    sim, switch, stations = fabric
    a, b, c, d = stations
    group = fresh_multicast_mac()
    switch.join_multicast(group, b.port)
    switch.leave_multicast(group, b.port)
    a.send(group)
    sim.run()
    # Empty group → unregistered → flood.
    assert len(b.received) == 1 and len(c.received) == 1


def test_join_multicast_rejects_unicast_mac(fabric):
    _sim, switch, stations = fabric
    with pytest.raises(NetworkError):
        switch.join_multicast(fresh_unicast_mac(), stations[0].port)


def test_port_mirroring_copies_ingress_and_egress(fabric):
    sim, switch, stations = fabric
    a, b, monitor, d = stations
    # Learn ports first.
    a.send(b.mac)
    b.send(a.mac)
    sim.run()
    for station in stations:
        station.received.clear()
    switch.mirror_port(a.port, monitor.port)
    # Ingress at a's port (a sends) must be mirrored.
    a.send(b.mac)
    sim.run()
    assert len(monitor.received) == 1
    # Egress through a's port (b sends to a) must be mirrored too.
    b.send(a.mac)
    sim.run()
    assert len(monitor.received) == 2
    assert d.received == []


def test_mirror_to_self_rejected(fabric):
    _sim, switch, stations = fabric
    with pytest.raises(NetworkError):
        switch.mirror_port(stations[0].port, stations[0].port)


def test_unmirror(fabric):
    sim, switch, stations = fabric
    a, b, monitor, _ = stations
    switch.mirror_port(a.port, monitor.port)
    switch.unmirror_port(a.port, monitor.port)
    a.send(b.mac)
    sim.run()
    # b unknown → flood reaches monitor anyway; use learned path instead.
    monitor.received.clear()
    b.send(a.mac)
    sim.run()
    a.received.clear()
    a.send(b.mac)
    sim.run()
    assert monitor.received == []


def test_foreign_port_rejected():
    sim = Simulator()
    switch_a, switch_b = Switch(sim, "a"), Switch(sim, "b")
    port_b = switch_b.new_port()
    with pytest.raises(NetworkError):
        switch_a.join_multicast(fresh_multicast_mac(), port_b)


class LoggingStation(Station):
    """Appends its port index to a shared log for every frame it hears."""

    def __init__(self, sim, switch, log):
        super().__init__(sim, switch)
        self.log = log

    def receive_frame(self, frame):
        self.log.append(self.port.index)


def test_multicast_fan_out_is_in_port_index_order():
    # The copies of one frame reach the group's cables at the same
    # instant, so the order they are queued in is the order they run in;
    # it must follow the ports' indices, not where the ports sit in memory.
    sim = Simulator()
    switch = Switch(sim)
    log = []
    stations = [LoggingStation(sim, switch, log) for _ in range(24)]
    group = fresh_multicast_mac()
    members = [stations[index] for index in (19, 2, 11, 23, 7, 14, 5, 16)]
    for station in members:
        switch.join_multicast(group, station.port)
    for _ in range(200):
        stations[0].send(group)
    sim.run()
    in_order = sorted(station.port.index for station in members)
    assert [log[i:i + 8] for i in range(0, len(log), 8)] == [in_order] * 200


def test_forwarding_delay_applied():
    sim = Simulator()
    switch = Switch(sim, forwarding_delay=0.005)
    a = Station(sim, switch)
    b = Station(sim, switch)
    a.send(MAC_BROADCAST)
    sim.run()
    assert sim.now >= 0.005
    assert len(b.received) == 1


def test_switch_tables_are_keyed_by_value(fabric):
    """Groups and learned ports go by the address's value: an equal but
    distinct ``MACAddress`` object is the same address."""
    sim, switch, stations = fabric
    a, b, c, d = stations
    switch.join_multicast(MACAddress("03:00:00:00:77:01"), b.port)
    a.send(MACAddress("03:00:00:00:77:01"))
    sim.run()
    assert (len(b.received), len(c.received), len(d.received)) == (1, 0, 0)
    switch.leave_multicast(MACAddress("03:00:00:00:77:01"), b.port)
    a.send(MACAddress("03:00:00:00:77:01"))
    sim.run()
    assert (len(b.received), len(c.received), len(d.received)) == (2, 1, 1)
    assert switch.frames_flooded == 1
    # b's source address is learned; a frame to an equal address follows it.
    b.send(MACAddress(a.mac.value))
    sim.run()
    before = [len(s.received) for s in stations]
    d.send(MACAddress(b.mac.value))
    sim.run()
    assert [len(s.received) for s in stations] == [before[0], before[1] + 1, before[2], before[3]]
    assert switch.frames_flooded == 1  # a's port was learned from its own frames
