"""The unchecked per-connection segment builder against the checked
constructor: same fields, same wire bytes, for every in-range input; and
the ``size`` fields both builders (and a UDP datagram) set against header
plus payload."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ip.datagram import IP_HEADER_SIZE, PROTO_TCP, PROTO_UDP, IPDatagram
from repro.net.addresses import IPAddress
from repro.net.tcpdump import segment_to_bytes
from repro.tcp.constants import TCP_HEADER_SIZE
from repro.tcp.segment import (
    MSS_OPTION_SIZE,
    TIMESTAMP_OPTION_SIZE,
    SegmentTemplate,
    TCPSegment,
)
from repro.udp.datagram import UDP_HEADER_SIZE, UDPDatagram
from repro.util.bytespan import EMPTY, PatternBytes, RealBytes

_FIELDS = [name for name in TCPSegment.__slots__ if name != "segment_id"]

_payloads = st.one_of(
    st.just(EMPTY),
    st.binary(max_size=64).map(RealBytes),
    st.builds(PatternBytes, st.integers(0, 1460), st.integers(0, 1 << 32), st.integers(0, 3)),
)
_timestamps = st.one_of(st.none(), st.floats(0, 1e6))


@settings(max_examples=200, deadline=None)
@given(
    src_port=st.integers(0, 0xFFFF),
    dst_port=st.integers(0, 0xFFFF),
    seq=st.integers(0, 0xFFFFFFFF),
    ack=st.integers(0, 0xFFFFFFFF),
    flags=st.integers(0, 0x3F),
    window=st.integers(0, 0xFFFF),
    payload=_payloads,
    mss_option=st.one_of(st.none(), st.integers(1, 0xFFFF)),
    ts_val=_timestamps,
    ts_ecr=_timestamps,
)
def test_template_build_equals_checked_constructor(src_port, dst_port, **fields):
    positional = [fields.pop(name) for name in ("seq", "ack", "flags", "window", "payload")]
    built = SegmentTemplate(src_port, dst_port).build(*positional, **fields)
    checked = TCPSegment(src_port, dst_port, *positional, **fields)
    assert type(built) is TCPSegment
    for name in _FIELDS:
        assert getattr(built, name) == getattr(checked, name), name
    # Both draw from the one segment-id counter.
    assert checked.segment_id == built.segment_id + 1
    # Everything derived from the fields follows.
    assert built.size == checked.size
    assert built.sequence_space_length == checked.sequence_space_length
    assert built.summary() == checked.summary()
    src_ip, dst_ip = IPAddress(0x0A000001), IPAddress(0x0A000064)
    assert segment_to_bytes(built, src_ip, dst_ip) == segment_to_bytes(checked, src_ip, dst_ip)


@settings(max_examples=200, deadline=None)
@given(
    payload=_payloads,
    mss_option=st.one_of(st.none(), st.integers(1, 0xFFFF)),
    ts_val=_timestamps,
    checked=st.booleans(),
)
def test_size_fields_are_header_plus_payload(payload, mss_option, ts_val, checked):
    if checked:
        segment = TCPSegment(1, 2, 3, 4, 0x18, 5, payload, mss_option, ts_val, ts_val)
    else:
        segment = SegmentTemplate(1, 2).build(3, 4, 0x18, 5, payload, mss_option, ts_val, ts_val)
    header = TCP_HEADER_SIZE
    if mss_option is not None:
        header += MSS_OPTION_SIZE
    if ts_val is not None:
        header += TIMESTAMP_OPTION_SIZE
    assert segment.size == header + payload.length
    src_ip, dst_ip = IPAddress(0x0A000001), IPAddress(0x0A000064)
    assert len(segment_to_bytes(segment, src_ip, dst_ip)) == segment.size
    datagram = IPDatagram(src_ip, dst_ip, PROTO_TCP, segment, segment.size)
    assert datagram.size == IP_HEADER_SIZE + header + payload.length
    assert datagram.decremented().size == datagram.size
    # A UDP datagram's size is a field too, set by its constructor.
    udp = UDPDatagram(1, 2, payload, payload.length)
    assert "size" in UDPDatagram.__slots__
    assert udp.size == UDP_HEADER_SIZE + payload.length
    assert IPDatagram(src_ip, dst_ip, PROTO_UDP, udp, udp.size).size == IP_HEADER_SIZE + udp.size


def test_template_defaults_match_constructor_defaults():
    built = SegmentTemplate(1, 2).build(3, 4, 0x10, 5)
    checked = TCPSegment(1, 2, 3, 4, 0x10, 5)
    for name in _FIELDS:
        assert getattr(built, name) == getattr(checked, name), name
    assert built.payload is EMPTY


@pytest.mark.parametrize(
    "seq, ack, window",
    [(-1, 0, 0), (1 << 32, 0, 0), (0, -1, 0), (0, 1 << 32, 0), (0, 0, -1)],
)
def test_checked_constructor_keeps_its_range_checks(seq, ack, window):
    with pytest.raises(ValueError):
        TCPSegment(1, 2, seq, ack, 0x10, window)
