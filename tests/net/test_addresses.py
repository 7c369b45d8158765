"""Tests for MAC and IPv4 address types."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AddressError
from repro.net.addresses import (
    MAC_BROADCAST,
    IPAddress,
    MACAddress,
    fresh_multicast_mac,
    fresh_unicast_mac,
    ip,
    mac,
)


def test_mac_parse_and_format():
    address = MACAddress("02:00:00:00:00:01")
    assert str(address) == "02:00:00:00:00:01"
    assert address.value == 0x020000000001


def test_mac_bad_literals_rejected():
    for bad in ("02:00:00:00:00", "zz:00:00:00:00:01", "02:00:00:00:00:100", ""):
        with pytest.raises(AddressError):
            MACAddress(bad)


def test_mac_int_range_checked():
    with pytest.raises(AddressError):
        MACAddress(1 << 48)
    with pytest.raises(AddressError):
        MACAddress(-1)


def test_mac_broadcast_properties():
    assert MAC_BROADCAST.is_broadcast
    assert MAC_BROADCAST.is_multicast  # group bit is set on all-ones


def test_mac_multicast_bit():
    assert MACAddress("01:00:5e:00:00:01").is_multicast
    assert not MACAddress("02:00:00:00:00:01").is_multicast


def test_fresh_macs_are_distinct():
    a, b = fresh_unicast_mac(), fresh_unicast_mac()
    assert a != b
    assert not a.is_multicast
    m = fresh_multicast_mac()
    assert m.is_multicast
    assert not m.is_broadcast


def test_mac_equality_with_string():
    assert MACAddress("02:00:00:00:00:01") == "02:00:00:00:00:01"
    assert MACAddress("02:00:00:00:00:01") != "02:00:00:00:00:02"


def test_mac_hashable():
    table = {MACAddress("02:00:00:00:00:01"): "x"}
    assert table[MACAddress("02:00:00:00:00:01")] == "x"


def test_hash_is_the_value_hash_and_pickles_by_value():
    """An address holds its value and nothing else: the hash is computed
    from it on demand, the same ``hash((tag, value))`` as ever (set
    iteration order must not move), and a pickle carries the value only."""
    for address, tag in ((MACAddress("02:00:00:00:00:01"), "mac"), (IPAddress("10.0.0.1"), "ip")):
        assert type(address).__slots__ == ("value",)
        assert hash(address) == hash((tag, address.value))
        assert hash(type(address)(address)) == hash(address)
        assert address.__reduce__() == (type(address), (address.value,))
        clone = pickle.loads(pickle.dumps(address))
        assert clone == address and hash(clone) == hash(address)


def test_ip_parse_and_format():
    address = IPAddress("10.0.0.1")
    assert str(address) == "10.0.0.1"
    assert address.value == (10 << 24) | 1


def test_ip_bad_literals_rejected():
    for bad in ("10.0.0", "10.0.0.256", "a.b.c.d", "10.0.0.1.2", ""):
        with pytest.raises(AddressError):
            IPAddress(bad)


def test_ip_in_network():
    address = ip("10.0.1.5")
    assert address.in_network(ip("10.0.1.0"), 24)
    assert address.in_network(ip("10.0.0.0"), 16)
    assert not address.in_network(ip("10.0.2.0"), 24)
    assert address.in_network(ip("0.0.0.0"), 0)  # default route matches all


def test_ip_in_network_prefix_validated():
    with pytest.raises(AddressError):
        ip("10.0.0.1").in_network(ip("10.0.0.0"), 33)


def test_ip_ordering_and_equality():
    assert ip("10.0.0.1") < ip("10.0.0.2")
    assert ip("10.0.0.1") == "10.0.0.1"
    assert ip("10.0.0.1") != "10.0.0.2"


def test_coercion_helpers():
    assert ip(ip("1.2.3.4")) == ip("1.2.3.4")
    assert mac(mac("02:00:00:00:00:01")).value == 0x020000000001


@given(st.integers(0, (1 << 32) - 1))
def test_prop_ip_roundtrip(value):
    assert IPAddress(str(IPAddress(value))).value == value


@given(st.integers(0, (1 << 48) - 1))
def test_prop_mac_roundtrip(value):
    assert MACAddress(str(MACAddress(value))).value == value


@given(st.integers(0, (1 << 32) - 1), st.integers(0, 32))
def test_prop_in_network_reflexive(value, prefix):
    address = IPAddress(value)
    assert address.in_network(address, prefix)
