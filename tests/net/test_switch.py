"""Tests for the learning switch: forwarding, multicast groups, mirroring."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetworkError
from repro.net.addresses import MAC_BROADCAST, MACAddress, fresh_multicast_mac, fresh_unicast_mac
from repro.net.frame import ETHERTYPE_IPV4, EthernetFrame
from repro.net.loss import ScriptedLoss
from repro.net.medium import Cable, FrameReceiver
from repro.net.switch import Switch
from repro.sim.simulator import Simulator
from repro.util.units import mbps, transmission_time


class Station(FrameReceiver):
    def __init__(self, sim, switch, rate_bps=mbps(100), delay=0.0):
        self.sim = sim
        self.mac = fresh_unicast_mac()
        self.received = []
        self.port = switch.new_port()
        self.cable = Cable(sim, self, self.port, rate_bps=rate_bps, delay=delay)

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


# -- one kernel event per switch hop: the ingress books each egress cable
# -- from the egress instant on --------------------------------------------------


class TimedStation(Station):
    def receive_frame(self, frame):
        self.received.append((self.sim.now, frame.frame_id))


@pytest.mark.parametrize("forwarding_delay", [0.0, 0.004])
def test_a_switch_hop_arrives_at_the_store_and_forward_instant(forwarding_delay):
    """Oracle: a frame entering at ``t_in`` leaves each output port at
    ``max(next_free, t_in + fd)`` and arrives ``tx + delay`` later.  Two
    fast senders feed slow group members back to back, so frames queue on
    every egress port; copies go out in port order."""
    sim = Simulator()
    switch = Switch(sim, forwarding_delay=forwarding_delay)
    senders = [TimedStation(sim, switch, mbps(100), delay=3e-6) for _ in range(2)]
    members = [TimedStation(sim, switch, mbps(10), delay=d) for d in (1e-6, 5e-6, 2e-6)]
    group = fresh_multicast_mac()
    for station in reversed(members):
        switch.join_multicast(group, station.port)
    ingress = []  # (t_in, sender index, frame id, size), in switch-arrival order
    for index, (station, sizes) in enumerate(zip(senders, ([500, 1500, 64], [900, 64]))):
        free = 0.0
        for size in sizes:
            frame = station.send(group, size)
            free += transmission_time(frame.wire_size, mbps(100))
            ingress.append((free + station.cable.delay, index, frame.frame_id, frame.wire_size))
    sim.run()
    next_free = {id(station): 0.0 for station in members}
    expected = {id(station): [] for station in members}
    for t_in, _, frame_id, size in sorted(ingress):
        for station in members:
            start = max(next_free[id(station)], t_in + forwarding_delay)
            next_free[id(station)] = start + transmission_time(size, mbps(10))
            expected[id(station)].append(
                (start + transmission_time(size, mbps(10)) + station.cable.delay, frame_id)
            )
    assert [station.received for station in members] == [expected[id(s)] for s in members]
    assert all(station.port.tx_frames == 5 for station in members)


def test_a_switch_port_refuses_a_half_duplex_cable():
    """A half-duplex cable shares one clock between its directions, which
    the switch would book out of order from its egress instants."""
    sim = Simulator()
    switch = Switch(sim)
    with pytest.raises(NetworkError, match="full-duplex"):
        Cable(sim, FrameReceiver(), switch.new_port(), rate_bps=mbps(100), full_duplex=False)


def test_an_egress_loss_model_is_asked_when_the_frame_enters_the_switch():
    """The egress cable's loss model is consulted at ingress, with the
    egress instant as its time; one installed while the frame waits out
    the forwarding delay does not see that frame."""
    sim = Simulator()
    switch = Switch(sim, forwarding_delay=0.005)
    a, b = Station(sim, switch), Station(sim, switch)
    asked = []
    b.cable.loss_model = lambda frame, now: asked.append((sim.now, now)) or False
    t_in = transmission_time(a.send(MAC_BROADCAST).wire_size, mbps(100))
    sim.run()
    assert asked == [(t_in, t_in + 0.005)]
    b.cable.loss_model = None
    a.send(MAC_BROADCAST)
    sim.run(until=sim.now + t_in + 0.0025)  # the frame is inside the switch
    late = ScriptedLoss(predicate=lambda frame: True)
    b.cable.loss_model = late
    sim.run()
    assert len(b.received) == 2 and late.seen == 0
    a.send(MAC_BROADCAST)
    sim.run()
    assert len(b.received) == 2 and late.dropped == 1


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


# -- the remembered output decision (DESIGN §13 rule 4) -------------------------

def test_a_port_added_after_a_flood_joins_the_next_flood(fabric):
    sim, switch, stations = fabric
    unknown = fresh_unicast_mac()
    stations[0].send(unknown)
    sim.run()
    late = Station(sim, switch)
    stations[0].send(unknown)
    sim.run()
    assert len(late.received) == 1 and switch.frames_flooded == 2


def test_a_join_after_a_flood_narrows_the_next_frame_to_the_group(fabric):
    sim, switch, stations = fabric
    a, b, c, d = stations
    group = fresh_multicast_mac()
    a.send(group)
    sim.run()
    switch.join_multicast(group, c.port)
    a.send(group)
    sim.run()
    assert [len(s.received) for s in (b, c, d)] == [1, 2, 1]
    assert switch.frames_flooded == 1


def test_unmirror_after_traffic_stops_the_copies(fabric):
    sim, switch, stations = fabric
    a, b, monitor, _ = stations
    b.send(a.mac)
    switch.mirror_port(a.port, monitor.port)
    a.send(b.mac)
    sim.run()
    assert len(monitor.received) == 2  # b's flood, a's mirrored frame
    switch.unmirror_port(a.port, monitor.port)
    a.send(b.mac)
    sim.run()
    assert len(monitor.received) == 2 and len(b.received) == 2


SOURCES = [MACAddress(f"02:00:00:00:cc:0{i}") for i in range(1, 3)] + [MACAddress("03:00:00:00:cc:01")]
GROUPS = [MACAddress("03:00:00:00:dd:01")]
DESTINATIONS = SOURCES[:2] + GROUPS + [MAC_BROADCAST]

switch_operations = st.one_of(
    st.tuples(st.just("ingress"), st.integers(0, 2), st.sampled_from(SOURCES), st.sampled_from(DESTINATIONS)),
    st.tuples(st.just("ingress"), st.integers(0, 2), st.sampled_from(SOURCES), st.sampled_from(DESTINATIONS)),
    st.tuples(st.just("join"), st.sampled_from(GROUPS), st.integers(0, 3)),
    st.tuples(st.just("leave"), st.sampled_from(GROUPS), st.integers(0, 3)),
    st.tuples(st.just("mirror"), st.integers(0, 2), st.integers(0, 2)),
    st.tuples(st.just("unmirror"), st.integers(0, 2), st.integers(0, 2)),
    st.tuples(st.just("new_port")),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(switch_operations, min_size=8, max_size=40))
def test_prop_a_remembered_decision_is_the_one_the_tables_give(ops):
    """Over random learn / move / join / leave / mirror / ``new_port``
    sequences, every frame leaves by ``_select_output_ports`` plus its
    mirrors, asked afresh, and counts as flooded exactly when that says;
    after every step, every remembered decision is still the fresh one."""
    switch = Switch(Simulator())
    egressed = []

    def new_port():
        port = switch.new_port()
        cable = Cable(switch.sim, FrameReceiver(), port, rate_bps=mbps(100))
        cable._transmit = lambda to, frame, at: egressed.append(port)  # the frame left by port

    for _ in range(3):
        new_port()

    def fresh(in_port, dst):
        frame = EthernetFrame(dst, SOURCES[0], ETHERTYPE_IPV4, None, 100)
        ports, floods = switch._select_output_ports(in_port, frame)
        return (switch._with_mirrors(in_port, ports) if switch._mirrors else ports), floods

    asked = {}
    for op in ops:
        kind = op[0]
        ports = switch.ports
        if kind == "new_port":
            if len(ports) < 5:
                new_port()
        elif kind == "ingress":
            in_port, dst = ports[op[1] % len(ports)], op[3]
            asked[in_port.index << 48 | dst.value] = (in_port, dst)
            flooded, egressed[:] = switch.frames_flooded, []
            in_port.receive_frame(EthernetFrame(dst, op[2], ETHERTYPE_IPV4, None, 100))
            reference, floods = fresh(in_port, dst)
            assert egressed == reference, op
            assert switch.frames_flooded == flooded + floods, op
        elif kind in ("join", "leave"):
            port = ports[op[2] % len(ports)]
            (switch.join_multicast if kind == "join" else switch.leave_multicast)(op[1], port)
        else:
            monitored, monitor = ports[op[1] % len(ports)], ports[op[2] % len(ports)]
            if monitored is not monitor:
                (switch.mirror_port if kind == "mirror" else switch.unmirror_port)(monitored, monitor)
        for key, decision in switch._decisions.items():
            assert decision == fresh(*asked[key]), (op, key)
