"""The IP flow cache is pinned to the tables it reads (DESIGN §13 rule 4).

After every write to a table behind a cached answer — the routing table,
ARP's static table and learned entries, the host's interfaces and VNICs —
and after an ARP entry ages out, the next datagram must leave exactly as
an uncached resolution (``routes.lookup`` + ``arp.lookup`` +
``source_mac_for``) says: by the same NIC, to the same MAC, from the same
source MAC and source IP.  Each writer has its own test, and a property
interleaves them with clock advances, sends and gateway forwards.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.host.host import Host
from repro.ip.datagram import PROTO_UDP, IPDatagram
from repro.net.addresses import IPAddress, MACAddress, ip
from repro.net.arp import ARP_CACHE_TTL, ARP_REPLY, ArpMessage
from repro.net.frame import ETHERTYPE_IPV4
from repro.net.medium import Hub
from repro.sim.simulator import Simulator
from repro.util.units import mbps

GW0, GW1 = ip("10.0.0.1"), ip("10.1.0.1")
NEAR, FAR_NET, FAR, WORLD = ip("10.0.0.5"), ip("10.2.0.0"), ip("10.2.0.7"), ip("8.8.8.8")
ON_NIC1 = ip("10.1.0.9")
VIRTUAL = ip("10.0.0.100")
MACS = [MACAddress(f"02:00:00:00:aa:0{i}") for i in range(1, 4)]
VNIC_MAC = MACAddress("02:00:00:00:bb:01")


class Router:
    """One host with a NIC on each of two hubs and a default route via
    10.0.0.1; every IPv4 frame it transmits is recorded."""

    def __init__(self) -> None:
        self.sim = Simulator(seed=1)
        self.host = Host(self.sim, "h")
        self.nics = [self.host.add_nic(), self.host.add_nic()]
        for nic in self.nics:
            Hub(self.sim, rate_bps=mbps(100)).attach(nic)
        self.host.configure_ip(self.nics[0], ip("10.0.0.2"), 24)
        self.host.configure_ip(self.nics[1], ip("10.1.0.2"), 24)
        self.host.ip_layer.add_default_route(self.nics[0], GW0)
        self.host.ip_layer.forwarding = True
        self.sent = []
        for nic in self.nics:
            self._record(nic)

    def _record(self, nic) -> None:
        transmit = nic.transmit

        def recording(frame):
            if frame.ethertype == ETHERTYPE_IPV4:
                self.sent.append((nic, frame))
            transmit(frame)

        nic.transmit = recording

    def learn(self, address, mac, nic_index=0) -> None:
        """An ARP reply from the wire maps ``address`` to ``mac``."""
        nic = self.nics[nic_index]
        message = ArpMessage(ARP_REPLY, address, mac, ip("10.0.0.2"), nic.mac)
        self.host.arp.handle_message(message, nic)

    def send(self, dst, src=None):
        """Send one datagram; the frame it left in, as :func:`expected` reads."""
        self.sent.clear()
        self.host.ip_layer.send(dst, PROTO_UDP, None, 8, src=src)
        return self._left()

    def forward(self, dst, src):
        self.sent.clear()
        self.host.ip_layer.receive(IPDatagram(src, dst, PROTO_UDP, None, 8), self.nics[0])
        return self._left()

    def _left(self):
        if not self.sent:
            return None
        ((nic, frame),) = self.sent
        return nic.name, frame.dst.value, frame.src.value, frame.payload.src.value

    def advance(self, seconds) -> None:
        self.sim.run(until=self.sim.now + seconds)


def expected(host, dst, src=None):
    """The uncached answer for a datagram to ``dst`` (from ``src``), or
    None when there is no route or the next hop needs an ARP exchange."""
    route = host.ip_layer.routes.lookup(dst)
    if route is None:
        return None
    source = src or route.src_ip or host.primary_ip_on(route.nic)
    mac = host.arp.lookup(route.next_hop or dst)
    if mac is None:
        return None
    return route.nic.name, mac.value, host.source_mac_for(route.nic, source).value, source.value


def sends_as_uncached(router, dst, src=None):
    left = router.send(dst, src)
    assert left == expected(router.host, dst, src)
    return left


def test_add_route_moves_a_cached_flow():
    router = Router()
    router.host.arp.add_static(GW0, MACS[0])
    router.host.arp.add_static(GW1, MACS[1])
    before = sends_as_uncached(router, FAR)
    router.host.ip_layer.add_route(FAR_NET, 24, router.nics[1], next_hop=GW1)
    after = sends_as_uncached(router, FAR)
    assert before[0] != after[0]


def test_remove_network_moves_a_cached_flow_back():
    router = Router()
    router.host.arp.add_static(GW0, MACS[0])
    router.host.arp.add_static(GW1, MACS[1])
    router.host.ip_layer.add_route(FAR_NET, 24, router.nics[1], next_hop=GW1)
    before = sends_as_uncached(router, FAR)
    router.host.ip_layer.routes.remove_network(FAR_NET, 24)
    after = sends_as_uncached(router, FAR)
    assert before[0] != after[0]


def test_add_static_overrides_a_cached_learned_entry():
    router = Router()
    router.learn(NEAR, MACS[0])
    before = sends_as_uncached(router, NEAR)
    router.host.arp.add_static(NEAR, MACS[1])
    after = sends_as_uncached(router, NEAR)
    assert (before[1], after[1]) == (MACS[0].value, MACS[1].value)


def test_remove_static_falls_back_to_the_learned_entry():
    router = Router()
    router.learn(NEAR, MACS[0])
    router.host.arp.add_static(NEAR, MACS[1])
    before = sends_as_uncached(router, NEAR)
    router.host.arp.remove_static(NEAR)
    after = sends_as_uncached(router, NEAR)
    assert (before[1], after[1]) == (MACS[1].value, MACS[0].value)


def test_an_entry_learned_from_the_wire_replaces_a_cached_one():
    router = Router()
    router.learn(NEAR, MACS[0])
    before = sends_as_uncached(router, NEAR)
    router.learn(NEAR, MACS[2])
    after = sends_as_uncached(router, NEAR)
    assert (before[1], after[1]) == (MACS[0].value, MACS[2].value)


def test_a_cached_flow_ages_out_with_its_arp_entry():
    router = Router()
    router.learn(NEAR, MACS[0])
    assert sends_as_uncached(router, NEAR) is not None
    router.advance(ARP_CACHE_TTL - 1.0)
    assert sends_as_uncached(router, NEAR) is not None
    requests = router.host.arp.requests_sent
    router.advance(2.0)
    # Expired: the datagram waits for an ARP exchange, like an uncached one.
    assert sends_as_uncached(router, NEAR) is None
    assert router.host.arp.requests_sent == requests + 1


def test_a_forwarded_flow_follows_the_tables_too():
    router = Router()
    source = ip("192.168.9.10")
    router.host.arp.add_static(GW0, MACS[0])
    first = router.forward(WORLD, source)
    assert first == (router.nics[0].name, MACS[0].value, router.nics[0].mac.value, source.value)
    router.host.arp.add_static(GW0, MACS[1])
    assert router.forward(WORLD, source)[1] == MACS[1].value


def test_a_forwarded_flow_ages_out_with_its_arp_entry():
    router = Router()
    source = ip("192.168.9.10")
    router.learn(GW0, MACS[0])
    assert router.forward(WORLD, source) is not None
    router.advance(ARP_CACHE_TTL + 1.0)
    assert router.forward(WORLD, source) is None  # waits for ARP, as uncached
    assert expected(router.host, WORLD, source) is None


def test_configure_ip_changes_the_source_of_a_cached_flow():
    sim = Simulator(seed=1)
    host = Host(sim, "h")
    nic = host.add_nic()
    Hub(sim, rate_bps=mbps(100)).attach(nic)
    host.add_vnic("v", ip("10.1.0.50"), VNIC_MAC, nic)
    host.ip_layer.add_route(ip("10.1.0.0"), 24, nic)
    host.arp.add_static(ON_NIC1, MACS[0])
    frames = []
    transmit = nic.transmit
    nic.transmit = lambda frame: frames.append(frame) or transmit(frame)
    host.ip_layer.send(ON_NIC1, PROTO_UDP, None, 8)
    host.configure_ip(nic, ip("10.1.0.2"), 24)
    host.ip_layer.send(ON_NIC1, PROTO_UDP, None, 8)
    left = [(frame.src.value, frame.payload.src.value) for frame in frames]
    assert left == [
        (VNIC_MAC.value, ip("10.1.0.50").value),
        (nic.mac.value, ip("10.1.0.2").value),
    ]


def test_add_vnic_and_remove_vnic_change_the_source_mac_of_a_cached_flow():
    router = Router()
    router.host.arp.add_static(NEAR, MACS[0])
    plain = sends_as_uncached(router, NEAR, VIRTUAL)
    vnic = router.host.add_vnic("svi", VIRTUAL, VNIC_MAC, router.nics[0])
    virtual = sends_as_uncached(router, NEAR, VIRTUAL)
    router.host.remove_vnic(vnic)
    again = sends_as_uncached(router, NEAR, VIRTUAL)
    assert (plain[2], virtual[2], again[2]) == (
        router.nics[0].mac.value, VNIC_MAC.value, router.nics[0].mac.value,
    )


# -- the property --------------------------------------------------------------

ARP_TARGETS = [GW0, NEAR, GW1]
DESTINATIONS = [NEAR, FAR, WORLD]
SOURCES = [None, VIRTUAL, ip("10.1.0.2")]
FOREIGN = [ip("192.168.9.10"), ip("192.168.9.11")]

learns = st.tuples(st.just("learn"), st.sampled_from(ARP_TARGETS), st.sampled_from(MACS))
sends = st.tuples(st.just("send"), st.sampled_from(DESTINATIONS), st.sampled_from(SOURCES))
operations = st.one_of(
    learns,
    learns,
    sends,
    sends,
    st.tuples(st.just("forward"), st.sampled_from(DESTINATIONS), st.sampled_from(FOREIGN)),
    st.tuples(st.just("static_add"), st.sampled_from(ARP_TARGETS), st.sampled_from(MACS)),
    st.tuples(st.just("static_remove"), st.sampled_from(ARP_TARGETS)),
    st.tuples(st.just("route_add")),
    st.tuples(st.just("route_remove")),
    st.tuples(st.just("vnic")),
    st.tuples(st.just("advance"), st.sampled_from([0.5, 650.0])),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(operations, min_size=10, max_size=40))
def test_prop_every_frame_leaves_as_an_uncached_resolution_says(ops):
    """Random writes, clock advances, sends and forwards: every frame that
    leaves, and every live cache entry after each step, is what an uncached
    resolution gives at that moment."""
    router = Router()
    host = router.host
    vnic = None
    for op in ops:
        kind = op[0]
        if kind == "route_add":
            host.ip_layer.add_route(FAR_NET, 24, router.nics[1], next_hop=GW1)
        elif kind == "route_remove":
            host.ip_layer.routes.remove_network(FAR_NET, 24)
        elif kind == "static_add":
            host.arp.add_static(op[1], op[2])
        elif kind == "static_remove":
            host.arp.remove_static(op[1])
        elif kind == "learn":
            router.learn(op[1], op[2])
        elif kind == "vnic":
            if vnic is None:
                vnic = host.add_vnic("svi", VIRTUAL, VNIC_MAC, router.nics[0])
            else:
                host.remove_vnic(vnic)
                vnic = None
        elif kind == "advance":
            router.advance(op[1])
        elif kind == "send":
            dst, src = op[1], op[2]
            assert router.send(dst, src) == expected(host, dst, src), op
        else:
            dst, src = op[1], op[2]
            left = router.forward(dst, src)
            reference = expected(host, dst, src)
            assert left == reference, op
            if left is not None:
                assert router.sent[0][1].payload.ttl == 63
        # After every step, a datagram on each flow the cache holds, live or
        # expired, leaves as the uncached answer says.
        for dst, src in list(host.ip_layer._flows):
            dst, src = IPAddress(dst), None if src is None else IPAddress(src)
            probe = router.forward if src in FOREIGN else router.send
            assert probe(dst, src) == expected(host, dst, src), (op, "probe")


def test_taps_run_in_registration_order_and_filter_by_source():
    """A logger-style tap (every datagram) and a backup-style tap (one
    source) on one host: each runs only on what it asked for, and in the
    order they were registered."""
    router = Router()
    calls = []
    layer = router.host.ip_layer
    layer.add_tap(lambda datagram, nic: calls.append(("logger", datagram.src.value)))
    layer.add_tap(lambda datagram, nic: calls.append(("backup", datagram.src.value)), src=FOREIGN[0])
    layer.add_tap(lambda datagram, nic: calls.append(("late", datagram.src.value)))
    for source in (FOREIGN[0], FOREIGN[1]):
        # Protocol 99 has no handler: the datagram ends at the taps.
        layer.receive(IPDatagram(source, ip("10.0.0.2"), 99, None, 8), router.nics[0])
    first, second = FOREIGN[0].value, FOREIGN[1].value
    assert calls == [
        ("logger", first), ("backup", first), ("late", first),
        ("logger", second), ("late", second),
    ]


def test_the_backup_taps_only_its_service_ip():
    from repro.harness.scenario import Scenario
    from repro.sttcp.config import STTCPConfig

    scenario = Scenario(sttcp=STTCPConfig(), with_logger=True, seed=3)
    engine = scenario.pair.backup_engine
    taps = scenario.backup.ip_layer._taps
    assert (engine._on_tapped_datagram, engine.service_ip.value) in taps
