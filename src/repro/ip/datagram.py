"""IPv4 datagrams.

Payloads are protocol objects (TCP segment, UDP datagram) carrying their
own size accounting; the datagram adds the 20-byte IPv4 header.
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.net.addresses import IPAddress

#: IP protocol numbers used by the simulator.
PROTO_TCP = 6
PROTO_UDP = 17

#: IPv4 header size (no options modelled).
IP_HEADER_SIZE = 20

#: Default initial TTL (Linux default).
DEFAULT_TTL = 64

_datagram_ids = itertools.count(1)


class IPDatagram:
    """An IPv4 datagram in flight.

    Immutable once built: ``size``, the total including the IPv4 header,
    is set beside ``payload_size`` at construction (DESIGN §13 rule 1).
    """

    __slots__ = (
        "src", "dst", "protocol", "payload", "payload_size", "size", "ttl", "datagram_id",
    )

    def __init__(
        self,
        src: IPAddress,
        dst: IPAddress,
        protocol: int,
        payload: Any,
        payload_size: int,
        ttl: int = DEFAULT_TTL,
    ) -> None:
        if payload_size < 0:
            raise ValueError(f"negative payload size {payload_size}")
        self.src = src
        self.dst = dst
        self.protocol = protocol
        self.payload = payload
        self.payload_size = payload_size
        self.size = IP_HEADER_SIZE + payload_size
        self.ttl = ttl
        self.datagram_id = next(_datagram_ids)

    def decremented(self) -> "IPDatagram":
        """A copy with TTL reduced by one (used when forwarding)."""
        copy = IPDatagram(
            self.src, self.dst, self.protocol, self.payload, self.payload_size,
            ttl=self.ttl - 1,
        )
        return copy

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        proto = {PROTO_TCP: "tcp", PROTO_UDP: "udp"}.get(self.protocol, self.protocol)
        return f"<IP#{self.datagram_id} {self.src}->{self.dst} {proto} {self.size}B ttl={self.ttl}>"
