"""IPv4: datagrams, routing, per-host layer with forwarding and taps."""

from repro.ip.datagram import (
    DEFAULT_TTL,
    IP_HEADER_SIZE,
    IPDatagram,
    PROTO_TCP,
    PROTO_UDP,
)
from repro.ip.layer import IPLayer
from repro.ip.routing import Route, RoutingTable

__all__ = [
    "DEFAULT_TTL",
    "IPDatagram",
    "IPLayer",
    "IP_HEADER_SIZE",
    "PROTO_TCP",
    "PROTO_UDP",
    "Route",
    "RoutingTable",
]
