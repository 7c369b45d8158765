"""Address Resolution Protocol.

Each host runs an :class:`ArpService` holding a static table and a dynamic
cache.  Static entries are how the paper wires its tapping architecture:
the gateway statically maps the service IP (SVI) to a *multicast* Ethernet
address (SME), and the primary statically maps the gateway's virtual IP
(GVI) to GME (§3.1) — static because RFC 1812 forbids a router from
accepting a multicast MAC in an ARP reply.

A backup server must stay invisible until failover, so IPs can be placed on
the *suppressed* list: the responder will not answer requests for them and
the host will not announce them, until :meth:`ArpService.unsuppress_ip`.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.net.addresses import MAC_BROADCAST, IPAddress, MACAddress
from repro.net.frame import ETHERTYPE_ARP, EthernetFrame
from repro.net.nic import NIC

ARP_REQUEST = 1
ARP_REPLY = 2

#: Wire size of an ARP message (IPv4 over Ethernet).
ARP_MESSAGE_SIZE = 28

#: How long a dynamic cache entry stays valid (seconds).
ARP_CACHE_TTL = 600.0

#: How long to keep packets queued waiting for resolution before giving up.
ARP_RESOLVE_TIMEOUT = 1.0

#: Retransmit an unanswered request this often while resolution is still
#: pending.  Far above any profile's ARP round trip (worst case ~9 ms), so
#: a retry only ever fires when the request or reply was actually lost.
ARP_RETRY_INTERVAL = 0.1


class ArpMessage:
    """An ARP request or reply."""

    __slots__ = ("op", "sender_ip", "sender_mac", "target_ip", "target_mac")

    def __init__(
        self,
        op: int,
        sender_ip: IPAddress,
        sender_mac: MACAddress,
        target_ip: IPAddress,
        target_mac: Optional[MACAddress] = None,
    ) -> None:
        self.op = op
        self.sender_ip = sender_ip
        self.sender_mac = sender_mac
        self.target_ip = target_ip
        self.target_mac = target_mac

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "REQ" if self.op == ARP_REQUEST else "REPLY"
        return f"<ARP {kind} who-has {self.target_ip} tell {self.sender_ip}>"


Continuation = Callable[[Optional[MACAddress]], None]


class _Resolution(list):
    """The waiters of one pending resolution, and its retry and expiry
    events: both are cancelled as it leaves ``_pending`` (answered,
    expired or halted), so neither checks that it is still current."""

    __slots__ = ("retry", "expiry")

    def cancel(self) -> None:
        self.retry.cancel()
        self.expiry.cancel()


class ArpService:
    """Per-host ARP: static table, dynamic cache, responder, resolver."""

    def __init__(self, sim: Any, host: Any) -> None:
        self.sim = sim
        self.host = host
        # Keyed by the IP's ``value`` (DESIGN §13 rule 8).
        self._static: Dict[int, MACAddress] = {}
        self._cache: Dict[int, Tuple[MACAddress, float]] = {}
        self._pending: Dict[int, _Resolution] = {}
        self.suppressed_ip_values: Set[int] = set()
        #: Run after each write to either table (the host's IP flow cache).
        self.on_change: Callable[[], None] = lambda: None
        self.requests_sent = 0
        self.replies_sent = 0

    # Table management ---------------------------------------------------------
    def add_static(self, ip: IPAddress, mac: MACAddress) -> None:
        """Install a permanent mapping (may map to a multicast MAC)."""
        self._static[ip.value] = mac
        self.on_change()

    def remove_static(self, ip: IPAddress) -> None:
        self._static.pop(ip.value, None)
        self.on_change()

    def suppress_ip(self, ip: IPAddress) -> None:
        """Stop answering ARP for ``ip`` (passive backup behaviour)."""
        self.suppressed_ip_values.add(ip.value)

    def unsuppress_ip(self, ip: IPAddress) -> None:
        """Resume answering ARP for ``ip`` (failover takeover)."""
        self.suppressed_ip_values.discard(ip.value)

    def lookup(self, ip: IPAddress) -> Optional[MACAddress]:
        """Synchronous lookup: static first, then unexpired cache entry."""
        entry = self.entry(ip)
        return None if entry is None else entry[0]

    def entry(self, ip: IPAddress) -> Optional[Tuple[MACAddress, float]]:
        """:meth:`lookup` with the answer's expiry (``inf`` if static)."""
        key = ip.value
        static = self._static.get(key)
        if static is not None:
            return static, math.inf
        cached = self._cache.get(key)
        if cached is not None:
            if cached[1] > self.sim.now:
                return cached
            del self._cache[key]
        return None

    # Resolution -----------------------------------------------------------------
    def resolve(self, ip: IPAddress, nic: NIC, done: Continuation) -> None:
        """Invoke ``done(mac)`` once ``ip`` is resolved on ``nic``.

        Calls back synchronously on a table hit.  On a miss, broadcasts a
        request, retransmitting every :data:`ARP_RETRY_INTERVAL` (a single
        lost frame must not fail resolution); ``done(None)`` is invoked if
        no reply arrives within :data:`ARP_RESOLVE_TIMEOUT`.
        """
        mac = self.lookup(ip)
        if mac is not None:
            done(mac)
            return
        pending = self._pending.get(ip.value)
        if pending is not None:
            pending.append(done)
            return
        resolution = self._pending[ip.value] = _Resolution([done])
        self._broadcast_request(ip, nic)
        schedule = self.sim.schedule
        resolution.retry = schedule(ARP_RETRY_INTERVAL, self._retry_request, ip, nic, resolution)
        resolution.expiry = schedule(ARP_RESOLVE_TIMEOUT, self._resolution_expired, ip)

    def _broadcast_request(self, target_ip: IPAddress, nic: NIC) -> None:
        sender_ip = self.host.primary_ip_on(nic)
        message = ArpMessage(ARP_REQUEST, sender_ip, nic.mac, target_ip)
        frame = EthernetFrame(
            MAC_BROADCAST, nic.mac, ETHERTYPE_ARP, message, ARP_MESSAGE_SIZE
        )
        self.requests_sent += 1
        nic.transmit(frame)

    def _retry_request(self, ip: IPAddress, nic: NIC, resolution: _Resolution) -> None:
        self._broadcast_request(ip, nic)
        resolution.retry = self.sim.schedule(ARP_RETRY_INTERVAL, self._retry_request, ip, nic, resolution)

    def _resolution_expired(self, ip: IPAddress) -> None:
        resolution = self._pending.pop(ip.value)
        resolution.retry.cancel()
        for done in resolution:
            done(None)

    def halt(self) -> None:
        """Crash (``Host.crash``): drop every pending resolution unanswered."""
        for resolution in self._pending.values():
            resolution.cancel()
        self._pending.clear()

    # Inbound handling ------------------------------------------------------------
    def handle_message(self, message: ArpMessage, nic: NIC) -> None:
        """Process an inbound ARP frame (called by the host stack)."""
        # Opportunistically learn the sender (but never cache multicast
        # MACs from the wire — mirrors the RFC 1812 restriction that
        # motivates the paper's static entries).
        if not message.sender_mac.is_multicast:
            self._cache[message.sender_ip.value] = (
                message.sender_mac,
                self.sim.now + ARP_CACHE_TTL,
            )
            self.on_change()
        resolution = self._pending.pop(message.sender_ip.value, None)
        if resolution is not None:
            resolution.cancel()
            resolved = self.lookup(message.sender_ip)
            for done in resolution:
                done(resolved)
        if message.op != ARP_REQUEST:
            return
        if message.target_ip.value in self.suppressed_ip_values:
            return
        owned = self.host.owned_ip_macs(nic)
        answer_mac = owned.get(message.target_ip.value)
        if answer_mac is None:
            return
        reply = ArpMessage(
            ARP_REPLY,
            sender_ip=message.target_ip,
            sender_mac=answer_mac,
            target_ip=message.sender_ip,
            target_mac=message.sender_mac,
        )
        frame = EthernetFrame(
            message.sender_mac, nic.mac, ETHERTYPE_ARP, reply, ARP_MESSAGE_SIZE
        )
        self.replies_sent += 1
        nic.transmit(frame)
