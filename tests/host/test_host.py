"""Tests for the host model: addressing, crash semantics, processes."""

import pytest

from repro.errors import ConfigurationError
from repro.host.host import Host, make_gateway
from repro.net.addresses import fresh_multicast_mac, ip
from repro.sim.simulator import Simulator

from tests.conftest import LanPair


@pytest.fixture
def sim():
    return Simulator(seed=55)


def test_local_ips_cover_interfaces_and_vnics(sim):
    host = Host(sim, "h")
    nic = host.add_nic()
    host.configure_ip(nic, ip("10.0.0.1"), 24)
    host.add_vnic("svi", ip("10.0.0.100"), fresh_multicast_mac(), nic)
    assert host.local_ip_values == {ip("10.0.0.1").value, ip("10.0.0.100").value}
    assert not hasattr(host, "local_ips")  # a stale reader fails loudly


def test_local_ip_cache_invalidated_on_changes(sim):
    host = Host(sim, "h")
    nic = host.add_nic()
    host.configure_ip(nic, ip("10.0.0.1"), 24)
    assert ip("10.0.0.100").value not in host.local_ip_values
    vnic = host.add_vnic("svi", ip("10.0.0.100"), fresh_multicast_mac(), nic)
    assert ip("10.0.0.100").value in host.local_ip_values
    host.remove_vnic(vnic)
    assert ip("10.0.0.100").value not in host.local_ip_values


def test_owned_ip_macs_scoped_to_nic(sim):
    host = Host(sim, "h")
    nic_a, nic_b = host.add_nic("a"), host.add_nic("b")
    host.configure_ip(nic_a, ip("10.0.0.1"), 24)
    host.configure_ip(nic_b, ip("192.168.1.1"), 24)
    assert set(host.owned_ip_macs(nic_a)) == {ip("10.0.0.1").value}
    assert set(host.owned_ip_macs(nic_b)) == {ip("192.168.1.1").value}


def test_source_mac_prefers_vnic(sim):
    host = Host(sim, "h")
    nic = host.add_nic()
    host.configure_ip(nic, ip("10.0.0.1"), 24)
    group = fresh_multicast_mac()
    host.add_vnic("svi", ip("10.0.0.100"), group, nic)
    assert host.source_mac_for(nic, ip("10.0.0.100")) == group
    assert host.source_mac_for(nic, ip("10.0.0.1")) == nic.mac


def test_configure_ip_requires_own_nic(sim):
    host_a, host_b = Host(sim, "a"), Host(sim, "b")
    foreign_nic = host_b.add_nic()
    with pytest.raises(ConfigurationError):
        host_a.configure_ip(foreign_nic, ip("10.0.0.1"), 24)


def test_primary_ip_requires_configuration(sim):
    host = Host(sim, "h")
    nic = host.add_nic()
    with pytest.raises(ConfigurationError):
        host.primary_ip_on(nic)


def test_crash_kills_processes_and_nics(sim):
    host = Host(sim, "h")
    host.add_nic()
    ticks = []

    def ticker():
        while True:
            yield sim.timeout(0.1)
            ticks.append(sim.now)

    host.spawn(ticker())
    sim.run(until=0.35)
    host.crash()
    sim.run(until=2.0)
    assert len(ticks) == 3  # nothing after the crash
    assert not host.is_up
    assert host.crashed_at == pytest.approx(0.35)
    assert all(not nic.powered for nic in host.nics)


def test_finished_processes_do_not_accumulate(sim):
    """A server spawns one handler per accepted connection; the list only
    serves crash(), so it must track the live set, not history."""
    host = Host(sim, "h")

    def long_lived():
        yield sim.timeout(1e9)

    def short_lived():
        yield sim.timeout(0.001)

    alive = [host.spawn(long_lived()) for _ in range(5)]
    for _ in range(100):
        for _ in range(100):
            host.spawn(short_lived())
        sim.run(until=sim.now + 0.002)
        assert len(host.processes) <= 2 * (len(alive) + 100) + 16
    assert [p for p in host.processes if p.alive] == alive


def test_crash_kills_exactly_the_alive_processes_in_spawn_order(sim):
    host = Host(sim, "h")
    killed = []

    def worker(index, lifetime):
        try:
            yield sim.timeout(lifetime)
        except GeneratorExit:
            killed.append(index)
            raise

    # Even indices finish at once, odd ones outlive the crash; enough of
    # them that the finished ones are pruned along the way.
    for index in range(200):
        host.spawn(worker(index, 0.001 if index % 2 == 0 else 10.0))
        sim.run(until=sim.now + 0.002)
    assert len(host.processes) < 200
    host.crash()
    assert killed == list(range(1, 200, 2))


def test_crash_is_idempotent(sim):
    host = Host(sim, "h")
    host.crash()
    first = host.crashed_at
    host.crash()
    assert host.crashed_at == first


def test_gateway_has_forwarding_enabled(sim):
    gateway = make_gateway(sim)
    assert gateway.ip_layer.forwarding


def test_crashed_host_ignores_inbound_frames():
    lan = LanPair(Simulator(seed=56))
    lan.b.udp.socket(5000)
    lan.b.crash()
    sender = lan.a.udp.socket(6000)
    sender.send_to((lan.ip_b, 5000), b"x")
    lan.sim.run(until=1.0)
    assert lan.b.udp.received == 0


def test_local_ip_values_are_kept_by_value(sim):
    """``configure_ip``, ``add_vnic`` and ``remove_vnic`` keep the set of
    values current; an IP held by an interface and a VNIC stays local
    when the VNIC goes, and an equal but distinct address is local."""
    host = Host(sim, "h")
    nic = host.add_nic()
    host.configure_ip(nic, ip("10.0.0.1"), 24)
    assert host.local_ip_values == {ip("10.0.0.1").value}
    svi = host.add_vnic("svi", ip("10.0.0.100"), fresh_multicast_mac(), nic)
    alias = host.add_vnic("alias", ip("10.0.0.1"), fresh_multicast_mac(), nic)
    assert host.local_ip_values == {ip("10.0.0.1").value, ip("10.0.0.100").value}
    host.remove_vnic(alias)
    assert host.local_ip_values == {ip("10.0.0.1").value, ip("10.0.0.100").value}
    host.remove_vnic(svi)
    assert host.local_ip_values == {ip("10.0.0.1").value}


def test_a_datagram_to_an_equal_address_is_delivered_locally():
    lan = LanPair(Simulator(seed=57))
    vnic = lan.b.add_vnic("svi", ip("10.0.0.100"), fresh_multicast_mac(), lan.nic_b)
    lan.a.arp.add_static(ip("10.0.0.100"), vnic.mac)
    received = []
    lan.b.udp.socket(5000).on_datagram = lambda payload, addr: received.append(payload)
    lan.a.udp.socket(6000).send_to((ip("10.0.0.100"), 5000), b"x")
    lan.sim.run(until=1.0)
    assert len(received) == 1
    lan.b.remove_vnic(vnic)
    lan.nic_b.promiscuous = True  # the frame still reaches IP, which drops it
    lan.a.udp.socket(6001).send_to((ip("10.0.0.100"), 5000), b"x")
    lan.sim.run(until=2.0)
    assert len(received) == 1
    assert lan.sim.metrics.value("host-b.ip.dropped_not_local") == 1
