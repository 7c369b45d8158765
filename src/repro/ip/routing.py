"""Longest-prefix-match routing table."""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.errors import NetworkError
from repro.net.addresses import IPAddress


class Route:
    """One routing table entry.

    ``next_hop`` of ``None`` means the destination is on-link (resolve the
    destination itself via ARP).  ``src_ip`` qualifies the route: it
    carries only datagrams from that source, so a host owning several IPs
    on one interface can send each one's traffic its own way (a pool host
    reaches the clients of service *i* through gateway identity *i*).
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

    ``on_change`` runs after every write (:meth:`add`,
    :meth:`remove_network`): the IP layer's flow cache remembers answers
    this table gave, and drops them there (DESIGN §13 rule 4).  That cache
    is keyed by (destination, source), so a source-qualified route costs
    its check only on a miss.
    """

    def __init__(self, on_change: Callable[[], None] = lambda: None) -> None:
        self._routes: List[Route] = []
        self._on_change = on_change

    def add(self, route: Route) -> None:
        self._routes.append(route)
        # Keep sorted by (prefix_len desc, source-qualified first, metric
        # asc) so lookup is a scan returning the first match.
        self._routes.sort(key=lambda r: (-r.prefix_len, r.src_ip is None, r.metric))
        self._on_change()

    def remove_network(
        self, network: IPAddress, prefix_len: int, src: Optional[IPAddress] = None
    ) -> None:
        """Drop the routes to ``network/prefix_len`` qualified by ``src``
        (None: the unqualified ones)."""
        source = None if src is None else src.value
        self._routes = [
            r
            for r in self._routes
            if not (
                r.network.value == network.value
                and r.prefix_len == prefix_len
                and (None if r.src_ip is None else r.src_ip.value) == source
            )
        ]
        self._on_change()

    def lookup(self, dst: IPAddress, src: Optional[IPAddress] = None) -> Optional[Route]:
        """The longest-prefix route to ``dst`` that carries datagrams from
        ``src``: a route qualified by another source (or, for ``src``
        None, by any source) is skipped."""
        source = None if src is None else src.value
        for route in self._routes:
            if route.matches(dst) and (
                route.src_ip is None or route.src_ip.value == source
            ):
                return route
        return None
