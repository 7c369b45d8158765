"""Ethernet frames.

Frames carry an opaque ``payload`` (an IP datagram or ARP message object)
plus explicit size accounting so link transmission times are realistic
without serialising anything.
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.net.addresses import MACAddress

#: EtherType values (the two the simulator uses).
ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806

#: Ethernet framing overhead in bytes: 14 header + 4 FCS (preamble/IFG are
#: folded into link rate calibration rather than modelled per frame).
ETHERNET_OVERHEAD = 18

#: Minimum Ethernet frame size on the wire.
ETHERNET_MIN_FRAME = 64

_frame_ids = itertools.count(1)


class EthernetFrame:
    """An Ethernet frame in flight.

    ``payload_size`` is the size in bytes of the encapsulated packet
    (headers included); ``wire_size`` — the bytes occupying the wire — adds
    Ethernet overhead and enforces the minimum frame size, once, at
    construction (frames are immutable).  ``frame_id`` uniquely identifies
    the frame for tracing and for the packet logger.
    """

    __slots__ = (
        "dst", "src", "ethertype", "payload", "payload_size", "wire_size", "frame_id",
    )

    def __init__(
        self,
        dst: MACAddress,
        src: MACAddress,
        ethertype: int,
        payload: Any,
        payload_size: int,
    ) -> None:
        if payload_size < 0:
            raise ValueError(f"negative payload size {payload_size}")
        self.dst = dst
        self.src = src
        self.ethertype = ethertype
        self.payload = payload
        self.payload_size = payload_size
        self.wire_size = max(payload_size + ETHERNET_OVERHEAD, ETHERNET_MIN_FRAME)
        self.frame_id = next(_frame_ids)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = {ETHERTYPE_IPV4: "ipv4", ETHERTYPE_ARP: "arp"}.get(
            self.ethertype, hex(self.ethertype)
        )
        return (
            f"<Frame#{self.frame_id} {self.src}->{self.dst} {kind} "
            f"{self.payload_size}B>"
        )
