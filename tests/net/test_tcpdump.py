"""Tests for the tcpdump-style trace renderer."""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ip.datagram import PROTO_TCP
from repro.net.addresses import IPAddress
from repro.net.tcpdump import (
    PacketDump,
    _checksum,
    _tcp_options,
    format_segment,
    segment_to_bytes,
)
from repro.sim.simulator import Simulator
from repro.tcp.constants import FLAG_ACK, FLAG_PSH, FLAG_SYN
from repro.tcp.segment import TCPSegment
from repro.util.bytespan import PatternBytes, RealBytes

from tests.conftest import LanPair, run_echo_once


def test_format_segment_syn():
    segment = TCPSegment(1000, 80, 5, 0, FLAG_SYN, 17520, mss_option=1460)
    text = format_segment(segment)
    assert text == "S 5:5(0) win 17520 mss 1460"


def test_format_segment_data():
    segment = TCPSegment(
        1000, 80, 100, 50, FLAG_ACK | FLAG_PSH, 1000, RealBytes(b"x" * 20)
    )
    text = format_segment(segment)
    assert text == "PA 100:120(20) ack 50 win 1000"


def test_format_segment_relative_seq():
    segment = TCPSegment(1, 2, 1010, 0, FLAG_ACK, 100, RealBytes(b"ab"))
    assert "10:12(2)" in format_segment(segment, relative_seq=1000)


def test_packet_dump_captures_connection():
    lan = LanPair(Simulator(seed=130))
    lines = []
    dump = PacketDump(lan.sim, sink=lines.append)
    dump.attach_nic(lan.nic_b, label="server")
    run_echo_once(lan)
    assert dump.lines_emitted > 0
    text = "\n".join(lines)
    assert ": S " in text  # the SYN arrived at the server
    assert "server" in lines[0]
    # ARP exchange is rendered too.
    assert "ARP" in text


def test_packet_dump_predicate_filters():
    from repro.net.frame import ETHERTYPE_IPV4

    lan = LanPair(Simulator(seed=131))
    lines = []
    dump = PacketDump(
        lan.sim,
        sink=lines.append,
        predicate=lambda frame: frame.ethertype == ETHERTYPE_IPV4,
    )
    dump.attach_host(lan.b)
    run_echo_once(lan)
    assert lines
    assert all("ARP" not in line for line in lines)


def test_packet_dump_detach_restores_handler():
    lan = LanPair(Simulator(seed=132))
    lines = []
    dump = PacketDump(lan.sim, sink=lines.append)
    dump.attach_nic(lan.nic_b)
    dump.detach_all()
    run_echo_once(lan)  # traffic still flows normally
    assert lines == []


# --------------------------------------------------------------------------
# Oracles: the RFC's word loop and the pack-everything serialiser.  Slow and
# literal on purpose — the code under src/ is held equal to them.
# --------------------------------------------------------------------------

_TCP_HEADER = struct.Struct("!HHIIBBHHH")


def _checksum_reference(data: bytes) -> int:
    """RFC 1071 ones'-complement checksum, word by word."""
    if len(data) % 2:
        data += b"\x00"
    total = sum(int.from_bytes(data[i : i + 2], "big") for i in range(0, len(data), 2))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def _segment_to_bytes_reference(segment, src_ip, dst_ip) -> bytes:
    """Pack the whole header with a zero checksum, checksum pseudo-header
    plus packet, splice the result in."""
    options = _tcp_options(segment)
    offset_words = (20 + len(options)) // 4
    header = _TCP_HEADER.pack(
        segment.src_port,
        segment.dst_port,
        segment.seq,
        segment.ack,
        offset_words << 4,
        segment.flags,
        segment.window,
        0,  # checksum placeholder
        0,  # urgent pointer
    )
    packet = header + options + segment.payload.to_bytes()
    pseudo = (
        src_ip.value.to_bytes(4, "big")
        + dst_ip.value.to_bytes(4, "big")
        + struct.pack("!BBH", 0, PROTO_TCP, len(packet))
    )
    checksum = _checksum_reference(pseudo + packet)
    return packet[:16] + struct.pack("!H", checksum) + packet[18:]


@settings(max_examples=300, deadline=None)
@given(data=st.binary(min_size=0, max_size=400))
def test_checksum_fast_matches_rfc1071_reference(data):
    """The mod-65535 big-int identity gives the same ones-complement
    checksum as the RFC 1071 word loop for every buffer."""
    assert _checksum(data) == _checksum_reference(data)


_payloads = st.one_of(
    st.binary(min_size=0, max_size=200).map(RealBytes),
    st.builds(
        PatternBytes,
        st.integers(0, 3000),
        st.integers(0, 1 << 20),
        st.integers(0, 7),
    ),
)
_segments = st.builds(
    TCPSegment,
    st.integers(1, 0xFFFF),
    st.integers(1, 0xFFFF),
    st.integers(0, 0xFFFFFFFF),
    st.integers(0, 0xFFFFFFFF),
    st.integers(0, 0x3F),
    st.integers(0, 0xFFFF),
    _payloads,
    st.one_of(st.none(), st.integers(536, 9000)),
)
_ip_pairs = st.tuples(
    st.integers(1, 0xFFFFFFFE).map(IPAddress), st.integers(1, 0xFFFFFFFE).map(IPAddress)
)


@settings(max_examples=150, deadline=None)
@given(segment=_segments, ip_pair=_ip_pairs)
def test_wire_bytes_match_full_pack_oracle(segment, ip_pair):
    """The serialiser and the reference oracle produce byte-identical
    wire output (header, options, checksum, payload) for arbitrary
    segments and address pairs."""
    src_ip, dst_ip = ip_pair
    assert segment_to_bytes(segment, src_ip, dst_ip) == _segment_to_bytes_reference(
        segment, src_ip, dst_ip
    )


def test_udp_rendering():
    lan = LanPair(Simulator(seed=133))
    lines = []
    dump = PacketDump(lan.sim, sink=lines.append)
    dump.attach_nic(lan.nic_b)
    lan.b.udp.socket(5000)
    sender = lan.a.udp.socket(6000)
    sender.send_to((lan.ip_b, 5000), b"hello")
    lan.sim.run(until=1.0)
    udp_lines = [line for line in lines if "UDP" in line]
    assert udp_lines
    assert "6000 > 10.0.0.2.5000" in udp_lines[0]
