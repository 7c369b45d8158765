"""The per-host IP layer: output path, input demux, forwarding, tapping.

The *tap hook* is the simulator analogue of the backup's promiscuous
reception: handlers registered with :meth:`IPLayer.add_tap` observe every
datagram that reaches the host stack, whether or not it is locally
addressed.  The ST-TCP backup engine uses this to watch the primary→client
byte stream (§3, Figure 1).
"""

from __future__ import annotations

import math
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.ip.datagram import DEFAULT_TTL, IPDatagram
from repro.ip.routing import Route, RoutingTable
from repro.net.addresses import IPAddress, MACAddress
from repro.net.frame import ETHERTYPE_IPV4, EthernetFrame
from repro.net.nic import NIC

ProtocolHandler = Callable[[IPDatagram, NIC], None]
TapHandler = Callable[[IPDatagram, NIC], None]
FlowKey = Tuple[int, Optional[int]]
#: (source IP, NIC, next-hop MAC, source MAC, ARP expiry or ``inf``).
Flow = Tuple[IPAddress, NIC, MACAddress, MACAddress, float]


class IPLayer:
    """IPv4 input/output for one host.

    ``_flows`` caches, per (destination, source or None) ``value``, what
    routing, ARP and the host's addresses answered, until the ARP entry
    expires or :meth:`invalidate_flows` runs (DESIGN §13 rule 4).
    """

    def __init__(self, sim: Any, host: Any) -> None:
        self.sim = sim
        self.host = host
        self._flows: Dict[FlowKey, Flow] = {}
        self.routes = RoutingTable(self.invalidate_flows)
        self.forwarding = False
        self._protocols: Dict[int, ProtocolHandler] = {}
        #: ``(handler, source value or None)`` in registration order.
        self._taps: List[Tuple[TapHandler, Optional[int]]] = []
        # Registry-backed counters, read as ``<host>.ip.<name>``.
        metrics = sim.metrics.scope(f"{host.name}.ip")
        self._c_sent = metrics.counter("sent")
        self._c_delivered = metrics.counter("delivered")
        self._c_forwarded = metrics.counter("forwarded")
        self._c_dropped_no_route = metrics.counter("dropped_no_route")
        self._c_dropped_no_arp = metrics.counter("dropped_no_arp")
        self._c_dropped_ttl = metrics.counter("dropped_ttl")
        self._c_dropped_not_local = metrics.counter("dropped_not_local")

    # Configuration -------------------------------------------------------------
    def register_protocol(self, protocol: int, handler: ProtocolHandler) -> None:
        self._protocols[protocol] = handler

    def add_tap(self, handler: TapHandler, src: Optional[IPAddress] = None) -> None:
        """Observe every inbound datagram (promiscuous tap analogue), or
        only those from ``src``; taps run in registration order."""
        self._taps.append((handler, None if src is None else src.value))

    def remove_tap(self, handler: TapHandler) -> None:
        self._taps = [tap for tap in self._taps if tap[0] != handler]

    def add_route(
        self,
        network: IPAddress,
        prefix_len: int,
        nic: NIC,
        next_hop: Optional[IPAddress] = None,
        src_ip: Optional[IPAddress] = None,
        metric: int = 0,
    ) -> None:
        self.routes.add(Route(network, prefix_len, nic, next_hop, src_ip, metric))

    def add_default_route(self, nic: NIC, next_hop: IPAddress) -> None:
        self.add_route(IPAddress(0), 0, nic, next_hop=next_hop, metric=100)

    def invalidate_flows(self) -> None:
        """Forget every flow-cache entry: a table behind them was written."""
        self._flows.clear()

    # Output path -----------------------------------------------------------------
    def send(
        self,
        dst: IPAddress,
        protocol: int,
        payload: Any,
        payload_size: int,
        src: Optional[IPAddress] = None,
        ttl: int = DEFAULT_TTL,
    ) -> None:
        """Route and emit one datagram (asynchronously past ARP)."""
        if dst.value in self.host.local_ip_values:
            datagram = IPDatagram(src or dst, dst, protocol, payload, payload_size, ttl)
            self.sim.post(self.sim.now, self._local_deliver, datagram, None)
            self._c_sent.value += 1
            return
        key = (dst.value, None if src is None else src.value)
        try:
            source, nic, mac, src_mac, expiry = self._flows[key]
        except KeyError:
            expiry = -math.inf
        if expiry > self.sim.now:
            datagram = IPDatagram(source, dst, protocol, payload, payload_size, ttl)
            self._c_sent.value += 1
            nic.transmit(EthernetFrame(mac, src_mac, ETHERTYPE_IPV4, datagram, datagram.size))
            return
        route = self.routes.lookup(dst, src)
        if route is None:
            self._c_dropped_no_route.value += 1
            if "ip" in self.sim.trace.categories:
                self.sim.trace.emit(
                    self.sim.now, "ip", "no_route", host=self.host.name, dst=str(dst)
                )
            return
        source = src or self.host.primary_ip_on(route.nic)
        datagram = IPDatagram(source, dst, protocol, payload, payload_size, ttl)
        self._c_sent.value += 1
        self._transmit(datagram, route, key)

    def _transmit(self, datagram: IPDatagram, route: Route, key: FlowKey) -> None:
        """The flow-cache miss: resolve ``route``'s next hop, fill the entry
        and emit; only an ARP miss pays for a continuation and the resolver."""
        next_hop = route.next_hop or datagram.dst
        nic = route.nic
        entry = self.host.arp.entry(next_hop)
        if entry is None:
            self.host.arp.resolve(
                next_hop, nic, partial(self._on_resolved, datagram, nic, next_hop)
            )
            return
        mac, expiry = entry
        self._flows[key] = (datagram.src, nic, mac, self._emit(datagram, nic, mac), expiry)

    def _on_resolved(
        self,
        datagram: IPDatagram,
        nic: NIC,
        next_hop: IPAddress,
        mac: Optional[MACAddress],
    ) -> None:
        """The ARP-miss continuation of :meth:`_transmit`; it fills no entry,
        as its route may have been rewritten meanwhile."""
        if mac is None:
            self._c_dropped_no_arp.value += 1
            if "ip" in self.sim.trace.categories:
                self.sim.trace.emit(
                    self.sim.now,
                    "ip",
                    "arp_fail",
                    host=self.host.name,
                    next_hop=str(next_hop),
                )
            return
        self._emit(datagram, nic, mac)

    def _emit(self, datagram: IPDatagram, nic: NIC, mac: MACAddress) -> MACAddress:
        """Frame ``datagram`` to ``mac`` out of ``nic``; returns the source MAC."""
        src_mac = self.host.source_mac_for(nic, datagram.src)
        nic.transmit(EthernetFrame(mac, src_mac, ETHERTYPE_IPV4, datagram, datagram.size))
        return src_mac

    # Input path ------------------------------------------------------------------
    def receive(self, datagram: IPDatagram, nic: NIC) -> None:
        """Entry point from the host stack for inbound IPv4 frames: a
        local datagram goes straight to its protocol handler."""
        for tap, src in self._taps:
            if src is None or src == datagram.src.value:
                tap(datagram, nic)
        if datagram.dst.value in self.host.local_ip_values:
            handler = self._protocols.get(datagram.protocol)
            if handler is None:
                self._no_protocol(datagram)
                return
            self._c_delivered.value += 1
            handler(datagram, nic)
            return
        if self.forwarding:
            self._forward(datagram, nic)
            return
        self._c_dropped_not_local.value += 1

    def _local_deliver(self, datagram: IPDatagram, nic: Optional[NIC]) -> None:
        """Loopback: a datagram this host queued to itself (:meth:`send`)."""
        if not self.host.is_up:  # loopback queued before a crash: no NIC drops it
            return
        handler = self._protocols.get(datagram.protocol)
        if handler is None:
            self._no_protocol(datagram)
            return
        self._c_delivered.value += 1
        handler(datagram, nic)

    def _no_protocol(self, datagram: IPDatagram) -> None:
        if "ip" in self.sim.trace.categories:
            self.sim.trace.emit(
                self.sim.now,
                "ip",
                "no_protocol",
                host=self.host.name,
                protocol=datagram.protocol,
            )

    def _forward(self, datagram: IPDatagram, in_nic: NIC) -> None:
        if datagram.ttl <= 1:
            self._c_dropped_ttl.value += 1
            return
        key = (datagram.dst.value, datagram.src.value)
        try:
            _, nic, mac, src_mac, expiry = self._flows[key]
        except KeyError:
            expiry = -math.inf
        # Even back out the arrival interface: a real router would add an
        # ICMP redirect, and hosts on the segment ignore the duplicate.
        if expiry > self.sim.now:
            self._c_forwarded.value += 1
            datagram = datagram.decremented()
            nic.transmit(EthernetFrame(mac, src_mac, ETHERTYPE_IPV4, datagram, datagram.size))
            return
        route = self.routes.lookup(datagram.dst, datagram.src)
        if route is None:
            self._c_dropped_no_route.value += 1
            return
        self._c_forwarded.value += 1
        self._transmit(datagram.decremented(), route, key)
