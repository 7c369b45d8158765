"""Longest-prefix-match routing table."""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import NetworkError
from repro.net.addresses import IPAddress


class Route:
    """One routing table entry.

    ``next_hop`` of ``None`` means the destination is on-link (resolve the
    destination itself via ARP).  ``src_ip`` pins the source address used
    for packets taking this route (needed when a host owns several IPs on
    one interface — e.g. a server that also owns the virtual service IP).
    """

    __slots__ = ("network", "prefix_len", "nic", "next_hop", "src_ip", "metric")

    def __init__(
        self,
        network: IPAddress,
        prefix_len: int,
        nic: Any,
        next_hop: Optional[IPAddress] = None,
        src_ip: Optional[IPAddress] = None,
        metric: int = 0,
    ) -> None:
        if not 0 <= prefix_len <= 32:
            raise NetworkError(f"bad prefix length {prefix_len}")
        self.network = network
        self.prefix_len = prefix_len
        self.nic = nic
        self.next_hop = next_hop
        self.src_ip = src_ip
        self.metric = metric

    def matches(self, dst: IPAddress) -> bool:
        return dst.in_network(self.network, self.prefix_len)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        via = f" via {self.next_hop}" if self.next_hop else ""
        return f"<Route {self.network}/{self.prefix_len}{via} dev {self.nic.name}>"


class RoutingTable:
    """An ordered collection of routes with longest-prefix-match lookup.

    A lookup's answer, a route or None, is remembered per destination
    ``value`` until :meth:`add` or :meth:`remove_network` changes the
    table: a route carries no clock, so nothing else can change it
    (DESIGN §13 rule 4; the ARP entry behind it is still looked up per
    datagram).
    """

    def __init__(self) -> None:
        self._routes: List[Route] = []
        self._memo: Dict[int, Optional[Route]] = {}

    def add(self, route: Route) -> None:
        self._routes.append(route)
        # Keep sorted by (prefix_len desc, metric asc) so lookup is a scan
        # returning the first match.
        self._routes.sort(key=lambda r: (-r.prefix_len, r.metric))
        self._memo.clear()

    def remove_network(self, network: IPAddress, prefix_len: int) -> None:
        self._routes = [
            r
            for r in self._routes
            if not (r.network.value == network.value and r.prefix_len == prefix_len)
        ]
        self._memo.clear()

    def lookup(self, dst: IPAddress) -> Optional[Route]:
        try:
            return self._memo[dst.value]
        except KeyError:
            pass
        found = None
        for route in self._routes:
            if route.matches(dst):
                found = route
                break
        self._memo[dst.value] = found
        return found

    def __iter__(self):
        return iter(self._routes)

    def __len__(self) -> int:
        return len(self._routes)
