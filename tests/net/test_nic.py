"""Tests for NIC filtering, queuing, VNICs, and power state."""

import pytest

from repro.errors import NetworkError
from repro.net.addresses import (
    MAC_BROADCAST,
    MACAddress,
    fresh_multicast_mac,
    fresh_unicast_mac,
    ip,
)
from repro.net.frame import ETHERTYPE_ARP, ETHERTYPE_IPV4, EthernetFrame
from repro.net.loss import ScriptedLoss
from repro.net.medium import Hub
from repro.net.nic import NIC, VirtualInterface
from repro.sim.simulator import Simulator
from repro.util.units import mbps


def make_frame(dst, size=200):
    return EthernetFrame(dst, fresh_unicast_mac(), ETHERTYPE_IPV4, None, size)


@pytest.fixture
def sim():
    return Simulator()


def collect(nic):
    received = []
    nic.add_observer(lambda frame, _nic: received.append(frame))
    return received


def test_accepts_own_mac_and_broadcast(sim):
    nic = NIC(sim)
    received = collect(nic)
    nic.receive_frame(make_frame(nic.mac))
    nic.receive_frame(make_frame(MAC_BROADCAST))
    assert len(received) == 2


def test_filters_foreign_unicast(sim):
    nic = NIC(sim)
    received = collect(nic)
    nic.receive_frame(make_frame(fresh_unicast_mac()))
    assert received == []
    assert nic.rx_dropped_filter == 1


def test_promiscuous_accepts_everything(sim):
    nic = NIC(sim)
    nic.promiscuous = True
    received = collect(nic)
    nic.receive_frame(make_frame(fresh_unicast_mac()))
    assert len(received) == 1


def test_join_and_leave_mac(sim):
    nic = NIC(sim)
    received = collect(nic)
    group = fresh_multicast_mac()
    nic.join_mac(group)
    nic.receive_frame(make_frame(group))
    assert len(received) == 1
    nic.leave_mac(group)
    nic.receive_frame(make_frame(group))
    assert len(received) == 1


def test_cannot_leave_builtin_macs(sim):
    nic = NIC(sim)
    with pytest.raises(NetworkError):
        nic.leave_mac(nic.mac)
    with pytest.raises(NetworkError):
        nic.leave_mac(MAC_BROADCAST)


def test_rx_loss_model_applies(sim):
    nic = NIC(sim, rx_loss_model=ScriptedLoss(drop_indices=[1]))
    received = collect(nic)
    nic.receive_frame(make_frame(nic.mac))
    nic.receive_frame(make_frame(nic.mac))
    assert len(received) == 1
    assert nic.rx_dropped_loss == 1


def test_processing_delay_defers_delivery(sim):
    nic = NIC(sim, processing_delay=0.002)
    received = []
    nic.register_ethertype(ETHERTYPE_IPV4, lambda _payload, _nic: received.append(sim.now))
    nic.receive_frame(make_frame(nic.mac))
    assert received == []  # not yet
    sim.run()
    assert received == [pytest.approx(0.002)]


def test_rx_queue_serialises_processing(sim):
    nic = NIC(sim, processing_delay=0.010)
    times = []
    nic.register_ethertype(ETHERTYPE_IPV4, lambda _payload, _nic: times.append(sim.now))
    nic.receive_frame(make_frame(nic.mac))
    nic.receive_frame(make_frame(nic.mac))
    sim.run()
    assert times == [pytest.approx(0.010), pytest.approx(0.020)]


def test_power_off_blocks_both_directions(sim):
    hub = Hub(sim, rate_bps=mbps(100))
    nic_a, nic_b = NIC(sim, "a"), NIC(sim, "b")
    hub.attach(nic_a)
    hub.attach(nic_b)
    received = collect(nic_b)
    nic_b.power_off()
    nic_a.transmit(make_frame(nic_b.mac))
    sim.run()
    assert received == []
    assert nic_b.rx_dropped_down == 1
    nic_b.power_on()
    nic_a.transmit(make_frame(nic_b.mac))
    sim.run()
    assert len(received) == 1


def test_powered_off_nic_does_not_transmit(sim):
    hub = Hub(sim, rate_bps=mbps(100))
    nic_a, nic_b = NIC(sim, "a"), NIC(sim, "b")
    hub.attach(nic_a)
    hub.attach(nic_b)
    received = collect(nic_b)
    nic_a.power_off()
    nic_a.transmit(make_frame(nic_b.mac))
    sim.run()
    assert received == []
    assert nic_a.tx_frames == 0


def test_transmit_without_medium_is_an_error(sim):
    nic = NIC(sim)
    with pytest.raises(NetworkError):
        nic.transmit(make_frame(fresh_unicast_mac()))


def test_vnic_joins_mac_and_removes(sim):
    nic = NIC(sim)
    received = collect(nic)
    group = fresh_multicast_mac()
    vnic = VirtualInterface("svi", ip("10.0.0.100"), group, nic)
    nic.receive_frame(make_frame(group))
    assert len(received) == 1
    vnic.remove()
    nic.receive_frame(make_frame(group))
    assert len(received) == 1


def test_counters_track_traffic(sim):
    hub = Hub(sim, rate_bps=mbps(100))
    nic_a, nic_b = NIC(sim, "a"), NIC(sim, "b")
    hub.attach(nic_a)
    hub.attach(nic_b)
    collect(nic_b)
    frame = make_frame(nic_b.mac, size=300)
    nic_a.transmit(frame)
    sim.run()
    assert nic_a.tx_frames == 1
    assert nic_a.tx_bytes == frame.wire_size
    assert nic_b.rx_frames == 1
    assert nic_b.rx_bytes == frame.wire_size


def test_mac_filter_is_keyed_by_value(sim):
    """Joining, filtering and leaving go by the address's value: an equal
    but distinct ``MACAddress`` object is the same address."""
    nic = NIC(sim)
    received = collect(nic)
    nic.join_mac(MACAddress("03:00:00:00:99:01"))
    nic.receive_frame(make_frame(MACAddress("03:00:00:00:99:01")))
    assert len(received) == 1
    nic.leave_mac(MACAddress("03:00:00:00:99:01"))
    nic.receive_frame(make_frame(MACAddress("03:00:00:00:99:01")))
    assert len(received) == 1 and nic.rx_dropped_filter == 1
    nic.receive_frame(make_frame(MACAddress(nic.mac.value)))
    nic.receive_frame(make_frame(MACAddress(MAC_BROADCAST.value)))
    assert len(received) == 3
    with pytest.raises(NetworkError):
        nic.leave_mac(MACAddress(nic.mac.value))
    with pytest.raises(NetworkError):
        nic.leave_mac(MACAddress(MAC_BROADCAST.value))


def test_receive_counts_a_refusal_once_without_asking_screen(sim):
    """``receive_frame`` runs the power and filter checks inline, with the
    counters ``screen`` keeps."""
    nic = NIC(sim)
    nic.screen = None  # a call through it would raise
    received = collect(nic)
    nic.receive_frame(make_frame(fresh_unicast_mac()))
    nic.power_off()
    nic.receive_frame(make_frame(nic.mac))
    assert received == []
    assert (nic.rx_dropped_filter, nic.rx_dropped_down) == (1, 1)


@pytest.mark.parametrize("processing_delay", [0.0, 0.001])
def test_payload_goes_to_its_ethertype_handler_after_the_observers(sim, processing_delay):
    """Both delivery paths, direct and after the processing delay: an
    observer sees every accepted frame first; the payload goes to the
    handler of its ethertype, and an unregistered ethertype goes nowhere."""
    nic = NIC(sim, processing_delay=processing_delay)
    log = []
    nic.add_observer(lambda frame, via: log.append(("frame", frame.ethertype, via is nic)))
    nic.register_ethertype(ETHERTYPE_IPV4, lambda payload, via: log.append(("ipv4", payload, via is nic)))
    nic.register_ethertype(ETHERTYPE_ARP, lambda payload, via: log.append(("arp", payload, via is nic)))
    for ethertype, payload in ((ETHERTYPE_IPV4, "d"), (ETHERTYPE_ARP, "m"), (0x86DD, "v6")):
        nic.receive_frame(EthernetFrame(nic.mac, fresh_unicast_mac(), ethertype, payload, 100))
    nic.receive_frame(make_frame(fresh_unicast_mac()))  # filtered: nobody sees it
    sim.run()
    assert log == [
        ("frame", ETHERTYPE_IPV4, True), ("ipv4", "d", True),
        ("frame", ETHERTYPE_ARP, True), ("arp", "m", True),
        ("frame", 0x86DD, True),
    ]
    assert (nic.rx_frames, nic.rx_dropped_filter) == (3, 1)


def test_a_removed_observer_sees_nothing_more(sim):
    nic = NIC(sim)
    seen = []
    observer = lambda frame, _nic: seen.append(frame)
    nic.add_observer(observer)
    nic.receive_frame(make_frame(nic.mac))
    nic.remove_observer(observer)
    nic.receive_frame(make_frame(nic.mac))
    assert len(seen) == 1 and nic.rx_frames == 2
