"""Tests for routing, the IP layer, forwarding, and taps."""

import pytest

from repro.host.host import Host, make_gateway
from repro.ip.datagram import IPDatagram, PROTO_UDP
from repro.ip.routing import Route, RoutingTable
from repro.net.addresses import ip
from repro.net.medium import Cable
from repro.sim.simulator import Simulator
from repro.util.units import mbps

from tests.conftest import LanPair


class FakeNIC:
    def __init__(self, name):
        self.name = name


def test_longest_prefix_match():
    table = RoutingTable()
    eth0, eth1 = FakeNIC("eth0"), FakeNIC("eth1")
    table.add(Route(ip("10.0.0.0"), 8, eth0))
    table.add(Route(ip("10.1.0.0"), 16, eth1))
    assert table.lookup(ip("10.1.2.3")).nic is eth1
    assert table.lookup(ip("10.2.0.1")).nic is eth0
    assert table.lookup(ip("192.168.0.1")) is None


def test_default_route_is_last_resort():
    table = RoutingTable()
    lan, wan = FakeNIC("lan"), FakeNIC("wan")
    table.add(Route(ip("0.0.0.0"), 0, wan, next_hop=ip("192.168.1.1"), metric=100))
    table.add(Route(ip("10.0.0.0"), 24, lan))
    assert table.lookup(ip("10.0.0.5")).nic is lan
    assert table.lookup(ip("8.8.8.8")).nic is wan


def test_remove_network():
    table = RoutingTable()
    nic = FakeNIC("eth0")
    table.add(Route(ip("10.0.0.0"), 24, nic))
    table.remove_network(ip("10.0.0.0"), 24)
    assert table.lookup(ip("10.0.0.1")) is None


def test_a_source_qualified_route_carries_only_its_own_sources_datagrams():
    table = RoutingTable()
    lan, vip_nic = FakeNIC("lan"), FakeNIC("vip")
    vip, far_net, far = ip("10.0.0.100"), ip("192.168.9.0"), ip("192.168.9.9")
    table.add(Route(far_net, 24, lan, next_hop=ip("10.0.0.253")))
    table.add(Route(far_net, 24, vip_nic, next_hop=ip("10.0.0.200"), src_ip=vip))
    # At one prefix length the qualified route wins, for its source only.
    assert table.lookup(far, vip).nic is vip_nic
    assert table.lookup(far, ip("10.0.0.100")).nic is vip_nic  # by value
    assert table.lookup(far, ip("10.0.0.1")).nic is lan
    assert table.lookup(far).nic is lan
    # A longer prefix still wins over a qualified route.
    host_nic = FakeNIC("host")
    table.add(Route(far, 32, host_nic))
    assert table.lookup(far, vip).nic is host_nic
    table.remove_network(far, 32)
    # Removal goes by source too: the unqualified route leaves alone.
    table.remove_network(far_net, 24)
    assert table.lookup(far, vip).nic is vip_nic and table.lookup(far) is None
    table.remove_network(far_net, 24, src=vip)
    assert table.lookup(far, vip) is None


def test_the_ip_layer_routes_by_source_and_connect_never_picks_a_qualified_route():
    """A datagram from the VIP leaves by its qualified route, one from the
    host's own address by the plain one, and ``connect()`` without a
    local IP takes the plain route's source."""
    from repro.net.addresses import fresh_unicast_mac
    from repro.net.medium import FrameReceiver

    class Tap(FrameReceiver):
        def receive_frame(self, frame):
            heard.append(frame)

    lan = LanPair(Simulator(seed=9))
    heard = []
    lan.hub.attach(Tap())
    vip = ip("10.0.0.100")
    lan.a.add_vnic("vip", vip, fresh_unicast_mac(), lan.nic_a)
    plain_mac, vip_mac = fresh_unicast_mac(), fresh_unicast_mac()
    lan.a.arp.add_static(ip("10.0.0.253"), plain_mac)
    lan.a.arp.add_static(ip("10.0.0.200"), vip_mac)
    far_net, far = ip("192.168.9.0"), ip("192.168.9.9")
    lan.a.ip_layer.add_route(far_net, 24, lan.nic_a, next_hop=ip("10.0.0.200"), src_ip=vip)
    lan.a.ip_layer.add_route(far_net, 24, lan.nic_a, next_hop=ip("10.0.0.253"))
    sock = lan.a.tcp.connect((far, 80))
    lan.a.ip_layer.send(far, PROTO_UDP, None, 8, src=vip)
    lan.a.ip_layer.send(far, PROTO_UDP, None, 8)
    lan.sim.run(until=0.01)
    assert sock.local_address[0] == lan.ip_a
    assert [(frame.dst, frame.payload.src) for frame in heard] == [
        (plain_mac, lan.ip_a), (vip_mac, vip), (plain_mac, lan.ip_a),
    ]


def test_route_prefix_validation():
    with pytest.raises(Exception):
        Route(ip("10.0.0.0"), 40, FakeNIC("x"))


def test_udp_delivery_between_hosts():
    lan = LanPair(Simulator(seed=9))
    received = []
    sock_b = lan.b.udp.socket(5000)
    sock_b.on_datagram = lambda payload, addr: received.append((payload, addr))
    sock_a = lan.a.udp.socket(6000)
    sock_a.send_to((lan.ip_b, 5000), b"datagram")
    lan.sim.run(until=1.0)
    assert len(received) == 1
    payload, (src_ip, src_port) = received[0]
    assert payload.to_bytes() == b"datagram"
    assert src_ip == lan.ip_a
    assert src_port == 6000


def test_loopback_delivery():
    lan = LanPair(Simulator(seed=9))
    received = []
    sock = lan.a.udp.socket(5000)
    sock.on_datagram = lambda payload, addr: received.append(payload)
    sender = lan.a.udp.socket(6000)
    sender.send_to((lan.ip_a, 5000), b"self")
    lan.sim.run(until=0.1)
    assert len(received) == 1
    assert lan.nic_a.tx_frames == 0  # never touched the wire


def test_tap_sees_all_datagrams_including_foreign():
    lan = LanPair(Simulator(seed=9))
    lan.nic_b.promiscuous = True
    tapped = []
    lan.b.ip_layer.add_tap(lambda datagram, nic: tapped.append(datagram))
    # a sends to a third (absent) host; b taps it promiscuously.
    lan.a.arp.add_static(ip("10.0.0.77"), lan.nic_b.mac)  # deliverable frame
    sock = lan.a.udp.socket(6000)
    sock.send_to((ip("10.0.0.77"), 1234), b"x")
    lan.sim.run(until=1.0)
    assert len(tapped) == 1
    assert tapped[0].dst == ip("10.0.0.77")
    assert lan.sim.metrics.value("host-b.ip.dropped_not_local") == 1


def test_remove_tap():
    lan = LanPair(Simulator(seed=9))
    tapped = []
    handler = lambda datagram, nic: tapped.append(datagram)
    lan.b.ip_layer.add_tap(handler)
    lan.b.ip_layer.remove_tap(handler)
    sock = lan.a.udp.socket(6000)
    lan.b.udp.socket(5000)
    sock.send_to((lan.ip_b, 5000), b"x")
    lan.sim.run(until=1.0)
    assert tapped == []


def test_no_route_counted():
    lan = LanPair(Simulator(seed=9))
    sock = lan.a.udp.socket(6000)
    sock.send_to((ip("192.168.5.1"), 80), b"x")
    lan.sim.run(until=0.5)
    assert lan.sim.metrics.value("host-a.ip.dropped_no_route") == 1


def test_gateway_forwards_between_subnets():
    sim = Simulator(seed=11)
    gateway = make_gateway(sim)
    left = Host(sim, "left")
    right = Host(sim, "right")
    gw_l, gw_r = gateway.add_nic("l"), gateway.add_nic("r")
    nic_l, nic_r = left.add_nic(), right.add_nic()
    Cable(sim, nic_l, gw_l, rate_bps=mbps(100))
    Cable(sim, nic_r, gw_r, rate_bps=mbps(100))
    left.configure_ip(nic_l, ip("192.168.1.2"), 24)
    right.configure_ip(nic_r, ip("10.0.0.2"), 24)
    gateway.configure_ip(gw_l, ip("192.168.1.1"), 24)
    gateway.configure_ip(gw_r, ip("10.0.0.1"), 24)
    left.ip_layer.add_default_route(nic_l, ip("192.168.1.1"))
    right.ip_layer.add_default_route(nic_r, ip("10.0.0.1"))

    received = []
    sock = right.udp.socket(7000)
    sock.on_datagram = lambda payload, addr: received.append((payload, addr))
    sender = left.udp.socket(7001)
    sender.send_to((ip("10.0.0.2"), 7000), b"across")
    sim.run(until=2.0)
    assert len(received) == 1
    assert received[0][0].to_bytes() == b"across"
    assert sim.metrics.value("gateway.ip.forwarded") == 1


def test_ttl_expiry_drops():
    sim = Simulator(seed=12)
    gateway = make_gateway(sim)
    left = Host(sim, "left")
    gw_l = gateway.add_nic("l")
    nic_l = left.add_nic()
    Cable(sim, nic_l, gw_l, rate_bps=mbps(100))
    left.configure_ip(nic_l, ip("192.168.1.2"), 24)
    gateway.configure_ip(gw_l, ip("192.168.1.1"), 24)
    gateway.ip_layer.add_route(ip("10.0.0.0"), 24, gw_l, next_hop=ip("192.168.1.2"))
    # Hand-craft a datagram with ttl=1 arriving at the gateway.
    from repro.udp.datagram import UDPDatagram

    inner = UDPDatagram(1, 2, b"", 0)
    datagram = IPDatagram(ip("192.168.1.2"), ip("10.0.0.9"), PROTO_UDP, inner, inner.size, ttl=1)
    gateway.ip_layer.receive(datagram, gw_l)
    sim.run(until=0.5)
    assert sim.metrics.value("gateway.ip.dropped_ttl") == 1


def test_crashed_host_sends_nothing():
    lan = LanPair(Simulator(seed=13))
    lan.b.udp.socket(5000)
    sock = lan.a.udp.socket(6000)
    lan.a.crash()
    sock.send_to((lan.ip_b, 5000), b"x")
    lan.sim.run(until=0.5)
    assert lan.nic_a.tx_frames == 0


# -- a route is remembered per flow, by the IP layer's flow cache, until
# -- the table changes (DESIGN §13 rule 4) -----------------------------------


def test_route_lookup_is_remembered_per_destination_value():
    """The IP layer's flow cache answers a second datagram to an equal,
    distinct address without asking the routing table; a miss (no route)
    is not remembered and is asked again."""
    lan = LanPair(Simulator(seed=9))
    lan.a.arp.add_static(lan.ip_b, lan.nic_b.mac)
    routes, asked = lan.a.ip_layer.routes, []
    lookup = routes.lookup
    routes.lookup = lambda dst, src=None: asked.append(dst.value) or lookup(dst, src)
    far = ip("192.168.9.9")
    sock = lan.a.udp.socket(6000)
    for target in (lan.ip_b, ip(str(lan.ip_b)), far, far):
        sock.send_to((target, 5000), b"x")
    assert asked == [lan.ip_b.value, far.value, far.value]


def test_route_memo_sees_a_more_specific_route_added_after_a_lookup():
    table = RoutingTable()
    wide, narrow = FakeNIC("wide"), FakeNIC("narrow")
    table.add(Route(ip("10.0.0.0"), 8, wide))
    assert table.lookup(ip("10.1.2.3")).nic is wide
    table.add(Route(ip("10.1.0.0"), 16, narrow))
    assert table.lookup(ip("10.1.2.3")).nic is narrow


def test_route_memo_forgets_a_removed_network():
    table = RoutingTable()
    table.add(Route(ip("10.0.0.0"), 24, FakeNIC("eth0")))
    assert table.lookup(ip("10.0.0.1")) is not None
    table.remove_network(ip("10.0.0.0"), 24)
    assert table.lookup(ip("10.0.0.1")) is None


def test_route_memo_forgets_a_miss_once_a_route_covers_it():
    table = RoutingTable()
    assert table.lookup(ip("8.8.8.8")) is None
    wan = FakeNIC("wan")
    table.add(Route(ip("0.0.0.0"), 0, wan, next_hop=ip("192.168.1.1"), metric=100))
    assert table.lookup(ip("8.8.8.8")).nic is wan


def test_a_route_added_after_traffic_carries_the_next_datagram():
    """End to end: the first send finds no route; the route installed
    afterwards carries the second."""
    lan = LanPair(Simulator(seed=9))
    far = ip("192.168.5.1")
    sock = lan.a.udp.socket(6000)
    sock.send_to((far, 80), b"x")
    lan.sim.run(until=0.5)
    assert lan.sim.metrics.value("host-a.ip.dropped_no_route") == 1
    lan.a.ip_layer.add_default_route(lan.nic_a, lan.ip_b)
    sock.send_to((far, 80), b"x")
    lan.sim.run(until=1.0)
    assert lan.sim.metrics.value("host-a.ip.dropped_no_route") == 1
    assert lan.sim.metrics.value("host-b.ip.dropped_not_local") == 1
