"""Tests for ARP: static entries, dynamic resolution, suppression."""

import pytest

from repro.net.addresses import fresh_multicast_mac, ip
from repro.sim.simulator import Simulator

from tests.conftest import LanPair


@pytest.fixture
def lan():
    return LanPair(Simulator(seed=5))


def resolve(host, target_ip, nic):
    results = []
    host.arp.resolve(target_ip, nic, results.append)
    host.sim.run(until=host.sim.now + 2.0)
    return results


def test_static_entry_resolves_synchronously(lan):
    group = fresh_multicast_mac()
    lan.a.arp.add_static(ip("10.0.0.100"), group)
    results = []
    lan.a.arp.resolve(ip("10.0.0.100"), lan.nic_a, results.append)
    assert results == [group]
    assert lan.a.arp.requests_sent == 0


def test_dynamic_resolution_via_request_reply(lan):
    results = resolve(lan.a, lan.ip_b, lan.nic_a)
    assert results == [lan.nic_b.mac]
    assert lan.a.arp.requests_sent == 1
    assert lan.b.arp.replies_sent == 1


def test_resolution_cached_after_first_lookup(lan):
    resolve(lan.a, lan.ip_b, lan.nic_a)
    results = []
    lan.a.arp.resolve(lan.ip_b, lan.nic_a, results.append)
    assert results == [lan.nic_b.mac]
    assert lan.a.arp.requests_sent == 1  # no second request


def test_unresolvable_address_times_out(lan):
    results = resolve(lan.a, ip("10.0.0.99"), lan.nic_a)
    assert results == [None]


def test_concurrent_resolutions_share_one_request(lan):
    results = []
    lan.a.arp.resolve(lan.ip_b, lan.nic_a, results.append)
    lan.a.arp.resolve(lan.ip_b, lan.nic_a, results.append)
    lan.sim.run(until=2.0)
    assert results == [lan.nic_b.mac, lan.nic_b.mac]
    assert lan.a.arp.requests_sent == 1


def test_suppressed_ip_not_answered(lan):
    service = ip("10.0.0.100")
    lan.b.add_vnic("svi", service, lan.nic_b.mac, lan.nic_b)
    lan.b.arp.suppress_ip(service)
    assert resolve(lan.a, service, lan.nic_a) == [None]
    lan.b.arp.unsuppress_ip(service)
    assert resolve(lan.a, service, lan.nic_a) == [lan.nic_b.mac]


def test_multicast_vnic_needs_static_entry():
    """A VNIC with a multicast MAC cannot be resolved dynamically — the
    receiver must not accept a multicast MAC from the wire (RFC 1812),
    which is exactly why the paper pins SVI→SME statically (§3.1)."""
    lan = LanPair(Simulator(seed=6))
    service = ip("10.0.0.100")
    group = fresh_multicast_mac()
    lan.b.add_vnic("svi", service, group, lan.nic_b)
    assert resolve(lan.a, service, lan.nic_a) == [None]
    lan.a.arp.add_static(service, group)
    assert lan.a.arp.lookup(service) == group


def test_vnic_with_unicast_mac_resolves_dynamically(lan):
    service = ip("10.0.0.100")
    lan.b.add_vnic("svi", service, lan.nic_b.mac, lan.nic_b)
    assert resolve(lan.a, service, lan.nic_a) == [lan.nic_b.mac]


def test_multicast_sender_mac_never_cached(lan):
    """Mirrors the RFC 1812 restriction motivating static entries (§3.1)."""
    from repro.net.arp import ARP_REQUEST, ArpMessage

    group = fresh_multicast_mac()
    message = ArpMessage(ARP_REQUEST, ip("10.0.0.50"), group, lan.ip_a)
    lan.a.arp.handle_message(message, lan.nic_a)
    assert lan.a.arp.lookup(ip("10.0.0.50")) is None


def test_requester_learns_from_request(lan):
    """Handling a request caches the sender's (unicast) mapping."""
    from repro.net.arp import ARP_REQUEST, ArpMessage

    message = ArpMessage(ARP_REQUEST, ip("10.0.0.7"), lan.nic_b.mac, lan.ip_a)
    lan.a.arp.handle_message(message, lan.nic_a)
    assert lan.a.arp.lookup(ip("10.0.0.7")) == lan.nic_b.mac


def test_remove_static(lan):
    lan.a.arp.add_static(ip("10.0.0.100"), lan.nic_b.mac)
    lan.a.arp.remove_static(ip("10.0.0.100"))
    assert lan.a.arp.lookup(ip("10.0.0.100")) is None


def test_static_table_is_keyed_by_value(lan):
    """``add_static``, ``lookup`` and ``remove_static`` go by the IP's
    value: an equal but distinct ``IPAddress`` object is the same IP."""
    group = fresh_multicast_mac()
    lan.a.arp.add_static(ip("10.0.0.100"), group)
    assert lan.a.arp.lookup(ip("10.0.0.100")) is group
    lan.a.arp.remove_static(ip("10.0.0.100"))
    assert lan.a.arp.lookup(ip("10.0.0.100")) is None


def test_suppression_is_keyed_by_value(lan):
    lan.b.arp.suppress_ip(ip(str(lan.ip_b)))
    assert resolve(lan.a, lan.ip_b, lan.nic_a) == [None]
    lan.b.arp.unsuppress_ip(ip(str(lan.ip_b)))
    assert resolve(lan.a, lan.ip_b, lan.nic_a) == [lan.nic_b.mac]
