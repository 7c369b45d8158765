"""UDP datagrams."""

from __future__ import annotations

from typing import Any

#: UDP header size.
UDP_HEADER_SIZE = 8


class UDPDatagram:
    """A UDP datagram: ports plus an opaque payload with explicit size.

    The ST-TCP sync channel sends small protocol objects
    (:mod:`repro.sttcp.messages`) rather than serialised bytes; each
    message declares its wire size, so traffic accounting stays honest.
    """

    __slots__ = ("src_port", "dst_port", "payload", "payload_size", "size")

    def __init__(self, src_port: int, dst_port: int, payload: Any, payload_size: int) -> None:
        if not 0 < src_port < 65536 or not 0 < dst_port < 65536:
            raise ValueError(f"bad UDP ports {src_port}->{dst_port}")
        if payload_size < 0:
            raise ValueError(f"negative payload size {payload_size}")
        self.src_port = src_port
        self.dst_port = dst_port
        self.payload = payload
        self.payload_size = payload_size
        #: Header plus payload, set beside ``payload_size`` (DESIGN §13 rule 1).
        self.size = UDP_HEADER_SIZE + payload_size

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<UDP {self.src_port}->{self.dst_port} {self.payload_size}B>"
