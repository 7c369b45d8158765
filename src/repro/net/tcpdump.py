"""A tcpdump-style renderer plus a real libpcap capture writer.

Attach a :class:`PacketDump` to any host NIC (or every NIC of a host) and
each frame it accepts is rendered in the repo's canonical segment format
(:meth:`~repro.tcp.segment.TCPSegment.summary`)::

    0.100312 client 10.0.0.10.40000 > 10.0.0.100.8000: PA 1:151(150) ack 1 win 17520

:class:`PcapWriter` serialises the same frames into a genuine libpcap file
(magic 0xa1b2c3d4, LINKTYPE_ETHERNET) with synthesised Ethernet/IP/TCP
bytes and valid checksums, so captures — including drill failure context —
open directly in Wireshark or tcpdump.  Both are read-only observers and
never perturb the simulation.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, List, Optional, Union

from repro.ip.datagram import PROTO_TCP, PROTO_UDP, IPDatagram
from repro.net.addresses import IPAddress, MACAddress
from repro.net.frame import ETHERTYPE_ARP, ETHERTYPE_IPV4, EthernetFrame
from repro.net.nic import NIC
from repro.tcp.segment import TCPSegment


def format_segment(
    segment: TCPSegment, relative_seq: Optional[int] = None, relative_ack: Optional[int] = None
) -> str:
    """Render a TCP segment in the canonical ``flags seq:end(len) ack win``
    format (delegates to :meth:`TCPSegment.summary`)."""
    return segment.summary(seq_base=relative_seq or 0, ack_base=relative_ack or 0)


def format_datagram(datagram: IPDatagram) -> str:
    """One-line rendering of an IP datagram's transport content."""
    if datagram.protocol == PROTO_TCP:
        segment: TCPSegment = datagram.payload
        return (
            f"{datagram.src}.{segment.src_port} > "
            f"{datagram.dst}.{segment.dst_port}: {format_segment(segment)}"
        )
    if datagram.protocol == PROTO_UDP:
        udp = datagram.payload
        payload = type(udp.payload).__name__
        return (
            f"{datagram.src}.{udp.src_port} > {datagram.dst}.{udp.dst_port}: "
            f"UDP {payload}, length {udp.payload_size}"
        )
    return f"{datagram.src} > {datagram.dst}: proto {datagram.protocol}"


def format_frame(frame: EthernetFrame) -> str:
    if frame.ethertype == ETHERTYPE_IPV4:
        return format_datagram(frame.payload)
    if frame.ethertype == ETHERTYPE_ARP:
        message = frame.payload
        from repro.net.arp import ARP_REQUEST

        if message.op == ARP_REQUEST:
            return f"ARP, Request who-has {message.target_ip} tell {message.sender_ip}"
        return f"ARP, Reply {message.sender_ip} is-at {message.sender_mac}"
    return f"ethertype {frame.ethertype:#06x}, length {frame.wire_size}"


class PacketDump:
    """Captures frames at one or more NICs and renders them.

    ``sink`` defaults to printing; pass a callable to collect lines
    instead (tests do).  ``predicate`` filters frames before rendering.
    """

    def __init__(
        self,
        sim: Any,
        sink: Optional[Callable[[str], None]] = None,
        predicate: Optional[Callable[[EthernetFrame], bool]] = None,
    ) -> None:
        self.sim = sim
        self.sink = sink or print
        self.predicate = predicate
        self.lines_emitted = 0
        self._attached: List[tuple] = []

    def attach_nic(self, nic: NIC, label: Optional[str] = None) -> None:
        """Tap the NIC's receive path (after filtering/queueing)."""
        name = label or nic.name
        spy = lambda frame, via: self._emit(name, frame)
        nic.add_observer(spy)
        self._attached.append((nic, spy))

    def attach_host(self, host: Any) -> None:
        for nic in host.nics:
            self.attach_nic(nic, label=f"{host.name}/{nic.name}")

    def detach_all(self) -> None:
        for nic, spy in self._attached:
            nic.remove_observer(spy)
        self._attached.clear()

    def _emit(self, where: str, frame: EthernetFrame) -> None:
        if self.predicate is not None and not self.predicate(frame):
            return
        self.lines_emitted += 1
        self.sink(f"{self.sim.now:.6f} {where} {format_frame(frame)}")


# --------------------------------------------------------------------------
# libpcap serialisation
# --------------------------------------------------------------------------

PCAP_MAGIC = 0xA1B2C3D4
PCAP_VERSION_MAJOR = 2
PCAP_VERSION_MINOR = 4
LINKTYPE_ETHERNET = 1

_PCAP_GLOBAL = struct.Struct("<IHHiIII")
_PCAP_RECORD = struct.Struct("<IIII")
_ETH_HEADER = struct.Struct("!6s6sH")
_TCP_HEADER = struct.Struct("!HHIIBBHHH")
_IPV4_HEADER = struct.Struct("!BBHHHBBH4s4s")
_UDP_HEADER = struct.Struct("!HHHH")
_ARP_BODY = struct.Struct("!HHBBH6s4s6s4s")


def _checksum(data: bytes) -> int:
    """RFC 1071 checksum via the mod-65535 identity (``tests/net`` holds
    it equal to the RFC's word-by-word loop over random buffers).

    Because ``2**16 ≡ 1 (mod 65535)``, every word's positional weight
    collapses to 1, so the big-integer value of the zero-padded buffer
    *is* its word sum mod 65535 — one C-speed conversion instead of a
    Python loop.  Ones'-complement addition is that sum, except that a
    non-zero total folds to 0xFFFF, never to 0.
    """
    if len(data) % 2:
        data += b"\x00"
    total = int.from_bytes(data, "big")
    folded = total % 65535
    if folded == 0 and total:
        folded = 65535
    return (~folded) & 0xFFFF


def _mac_bytes(address: MACAddress) -> bytes:
    return address.value.to_bytes(6, "big")


def _ip_bytes(address: IPAddress) -> bytes:
    return address.value.to_bytes(4, "big")


def _payload_bytes(payload: Any, size: int) -> bytes:
    """Materialise a span if possible, zero-fill opaque payloads."""
    if hasattr(payload, "to_bytes"):
        return payload.to_bytes()
    return bytes(size)


def _tcp_options(segment: TCPSegment) -> bytes:
    if segment.mss_option is None:
        return b""
    return struct.pack("!BBH", 2, 4, segment.mss_option)


def segment_to_bytes(segment: TCPSegment, src_ip: IPAddress, dst_ip: IPAddress) -> bytes:
    """Serialise a TCP segment (with options and a valid checksum)."""
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
        0,  # checksum, spliced in below
        0,  # urgent pointer
    )
    packet = header + options + _payload_bytes(segment.payload, segment.payload_length)
    pseudo = _ip_bytes(src_ip) + _ip_bytes(dst_ip) + struct.pack("!BBH", 0, PROTO_TCP, len(packet))
    return packet[:16] + struct.pack("!H", _checksum(pseudo + packet)) + packet[18:]


def _udp_to_bytes(udp: Any, src_ip: IPAddress, dst_ip: IPAddress) -> bytes:
    length = 8 + udp.payload_size
    payload = bytes(udp.payload_size)  # channel messages are opaque objects
    header = _UDP_HEADER.pack(udp.src_port, udp.dst_port, length, 0)
    pseudo = _ip_bytes(src_ip) + _ip_bytes(dst_ip) + struct.pack("!BBH", 0, PROTO_UDP, length)
    checksum = _checksum(pseudo + header + payload) or 0xFFFF
    return header[:6] + struct.pack("!H", checksum) + payload


def datagram_to_bytes(datagram: IPDatagram) -> bytes:
    """Serialise an IPv4 datagram with a valid header checksum."""
    if datagram.protocol == PROTO_TCP:
        body = segment_to_bytes(datagram.payload, datagram.src, datagram.dst)
    elif datagram.protocol == PROTO_UDP:
        body = _udp_to_bytes(datagram.payload, datagram.src, datagram.dst)
    else:
        body = bytes(datagram.payload_size)
    header = _IPV4_HEADER.pack(
        0x45,  # version 4, IHL 5
        0,
        20 + len(body),
        datagram.datagram_id & 0xFFFF,
        0x4000,  # don't fragment
        datagram.ttl,
        datagram.protocol,
        0,  # checksum placeholder
        _ip_bytes(datagram.src),
        _ip_bytes(datagram.dst),
    )
    checksum = _checksum(header)
    return header[:10] + struct.pack("!H", checksum) + header[12:] + body


def _arp_to_bytes(message: Any) -> bytes:
    target_mac = message.target_mac
    return _ARP_BODY.pack(
        1,  # hardware type: Ethernet
        ETHERTYPE_IPV4,
        6,
        4,
        message.op,
        _mac_bytes(message.sender_mac),
        _ip_bytes(message.sender_ip),
        _mac_bytes(target_mac) if target_mac is not None else bytes(6),
        _ip_bytes(message.target_ip),
    )


def frame_to_bytes(frame: EthernetFrame) -> bytes:
    """Serialise an Ethernet frame (header + encapsulated packet, no FCS)."""
    header = _ETH_HEADER.pack(_mac_bytes(frame.dst), _mac_bytes(frame.src), frame.ethertype)
    if frame.ethertype == ETHERTYPE_IPV4:
        return header + datagram_to_bytes(frame.payload)
    if frame.ethertype == ETHERTYPE_ARP:
        return header + _arp_to_bytes(frame.payload)
    return header + bytes(frame.payload_size)


class PcapWriter:
    """Writes simulated frames as a libpcap capture file.

    The classic format (not pcapng): 24-byte global header with magic
    ``0xa1b2c3d4`` and LINKTYPE_ETHERNET, then one ``(ts_sec, ts_usec,
    incl_len, orig_len)`` record header per frame followed by the
    synthesised frame bytes.
    """

    def __init__(self, target: Union[str, Any], snaplen: int = 65535) -> None:
        self._own_handle = isinstance(target, (str, bytes))
        self._handle = open(target, "wb") if self._own_handle else target
        self.frames_written = 0
        self._handle.write(
            _PCAP_GLOBAL.pack(
                PCAP_MAGIC,
                PCAP_VERSION_MAJOR,
                PCAP_VERSION_MINOR,
                0,  # thiszone
                0,  # sigfigs
                snaplen,
                LINKTYPE_ETHERNET,
            )
        )

    def write_frame(self, timestamp: float, frame: EthernetFrame) -> None:
        self.write_bytes(timestamp, frame_to_bytes(frame))

    def write_bytes(self, timestamp: float, raw: bytes) -> None:
        ts_sec = int(timestamp)
        ts_usec = int(round((timestamp - ts_sec) * 1e6))
        if ts_usec >= 1_000_000:  # guard the rounding edge at .999999+
            ts_sec, ts_usec = ts_sec + 1, 0
        self._handle.write(_PCAP_RECORD.pack(ts_sec, ts_usec, len(raw), len(raw)))
        self._handle.write(raw)
        self.frames_written += 1

    def close(self) -> None:
        if self._own_handle:
            self._handle.close()

    def __enter__(self) -> "PcapWriter":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def write_pcap(path: str, frames: List[tuple]) -> int:
    """Write ``[(timestamp, frame), ...]`` to ``path``; returns the count."""
    with PcapWriter(path) as writer:
        for timestamp, frame in frames:
            writer.write_frame(timestamp, frame)
        return writer.frames_written
