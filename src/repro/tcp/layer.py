"""The per-host TCP layer: demultiplexing, listeners, ISN generation.

Protocol variants integrate through :attr:`TCPLayer.connection_observers`:
each observer runs for every passively opened connection *before* the
SYN is processed, so it can attach :class:`repro.tcp.extension.TCPExtension`
objects (the replication engines do exactly this) without touching
listener or application code.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import ConnectionClosed, EphemeralPortsExhausted, PortInUseError
from repro.ip.datagram import PROTO_TCP, IPDatagram
from repro.net.addresses import IPAddress
from repro.net.nic import NIC
from repro.tcp.config import TCPConfig
from repro.tcp.constants import FLAG_ACK, FLAG_RST, FLAG_SYN, SEQ_MASK
from repro.tcp.listener import TCPListener
from repro.tcp.segment import TCPSegment, make_rst
from repro.tcp.socket import TCPSocket
from repro.tcp.tcb import TCPConnection

EPHEMERAL_PORT_START = 32768
EPHEMERAL_PORT_END = 60999

ConnectionKey = Tuple[int, int, int, int]
ConnectionCallback = Callable[[TCPConnection], None]


class TCPLayer:
    """Owns all TCP state of one host."""

    def __init__(self, sim: Any, host: Any, config: Optional[TCPConfig] = None) -> None:
        self.sim = sim
        self.host = host
        self.config = config or TCPConfig()
        self._connections: Dict[ConnectionKey, TCPConnection] = {}
        self._listeners: Dict[Tuple[Optional[int], int], TCPListener] = {}
        # Ephemeral-port pool.  Virgin ports are handed out sequentially
        # from the cursor; ports whose last connection was reaped return
        # through the free list and are reused once the cursor wraps.
        # The range is a layer attribute (not a module constant read) so
        # exhaustion tests can shrink it.
        self.ephemeral_start = EPHEMERAL_PORT_START
        self.ephemeral_end = EPHEMERAL_PORT_END
        self._next_ephemeral = self.ephemeral_start
        self._free_ports: Deque[int] = deque()
        #: Live-connection count per local port (ephemeral accounting).
        self._port_refs: Dict[int, int] = {}
        #: Observers invoked for every passive open, before the SYN is
        #: processed (replication engines use this to attach retention or
        #: extensions to new connections).
        self.connection_observers: List[ConnectionCallback] = []
        #: Observers invoked after a connection leaves the table (reached
        #: CLOSED or expired TIME_WAIT).  Replication engines use this to
        #: drop their per-connection state, so closed connections return
        #: *all* their memory, not just the TCB table slot.
        self.close_observers: List[ConnectionCallback] = []
        #: Answer unmatched segments with RST (real-stack behaviour).
        self.reset_on_unmatched = True
        # Registry-backed counters, read as ``<host>.tcp.<name>``.
        # ``syns_deflected``: SYNs a bound listener refused (backlog
        # full); ``segments_unmatched``: no matching endpoint at all.
        metrics = sim.metrics.scope(f"{host.name}.tcp")
        self._c_segments_demuxed = metrics.counter("segments_demuxed")
        self._c_segments_unmatched = metrics.counter("segments_unmatched")
        self._c_syns_deflected = metrics.counter("syns_deflected")
        self._c_resets_sent = metrics.counter("resets_sent")
        self._c_tcbs_reaped = metrics.counter("tcbs_reaped")
        self._c_ports_exhausted = metrics.counter("ephemeral_ports_exhausted")
        #: High-water connection-table size.
        self._g_connections_peak = metrics.gauge("connections_peak")
        #: Formatted once; the stream is looked up per draw (``reseed`` holds).
        self._isn_stream = f"tcp.isn.{host.name}"
        host.ip_layer.register_protocol(PROTO_TCP, self._receive)

    @property
    def connection_count(self) -> int:
        """Connections currently in the table (all states)."""
        return len(self._connections)

    # Connection-table bookkeeping --------------------------------------------
    def _track(self, key: ConnectionKey, tcb: TCPConnection) -> None:
        self._connections[key] = tcb
        count = len(self._connections)
        if count > self._g_connections_peak.value:
            self._g_connections_peak.value = count
        port = key[1]
        if self.ephemeral_start <= port <= self.ephemeral_end:
            self._port_refs[port] = self._port_refs.get(port, 0) + 1

    # ISN ----------------------------------------------------------------------
    def generate_isn(self) -> int:
        """A random 32-bit initial sequence number.

        Each host draws from its own host-named stream, so two replicas
        of one server choose different ISNs — which is precisely why a
        replica re-anchors on the ISN the client actually saw
        (:meth:`TCPConnection.adopt_send_isn`, §4.1).
        """
        rng = self.sim.random.stream(self._isn_stream)
        return rng.randrange(0, SEQ_MASK)

    # Active open -----------------------------------------------------------------
    def connect(
        self,
        remote: Tuple[IPAddress, int],
        local_ip: Optional[IPAddress] = None,
        local_port: Optional[int] = None,
        config: Optional[TCPConfig] = None,
    ) -> TCPSocket:
        """Begin an active open; returns the socket immediately.

        ``yield sock.wait_connected()`` to block until established.
        """
        remote_ip, remote_port = remote
        if local_ip is None:
            route = self.host.ip_layer.routes.lookup(remote_ip)
            if route is None:
                raise ConnectionClosed(f"no route to {remote_ip}")
            local_ip = self.host.primary_ip_on(route.nic)
        if local_port is None:
            local_port = self._allocate_ephemeral(local_ip, remote_ip, remote_port)
        key = (local_ip.value, local_port, remote_ip.value, remote_port)
        if key in self._connections:
            raise PortInUseError(f"connection {key} already exists")
        tcb = TCPConnection(
            self, local_ip, local_port, remote_ip, remote_port, config or self.config
        )
        self._track(key, tcb)
        socket = TCPSocket(tcb)
        tcb.open_active()
        return socket

    def _allocate_ephemeral(
        self, local_ip: IPAddress, remote_ip: IPAddress, remote_port: int
    ) -> int:
        """Pick a local port for an active open, O(1) in the common case.

        Virgin ports come off the sequential cursor; once the range has
        been walked, ports freed by reaped connections are reused from
        the free list.  Only when both are empty — every port carries at
        least one live connection — does allocation fall back to probing
        for a port whose specific 4-tuple is free, and a fully loaded
        range raises :class:`EphemeralPortsExhausted`.
        """
        while self._next_ephemeral <= self.ephemeral_end:
            port = self._next_ephemeral
            self._next_ephemeral += 1
            if (local_ip.value, port, remote_ip.value, remote_port) not in self._connections:
                return port
        while self._free_ports:
            port = self._free_ports.popleft()
            if self._port_refs.get(port, 0):
                continue  # re-bound explicitly since it was freed; stale entry
            if (local_ip.value, port, remote_ip.value, remote_port) not in self._connections:
                return port
        # Every port in the range is busy; a port serving *other* remotes
        # can still reach this one.  Exhaustion-adjacent, so O(range) is
        # acceptable here and only here.
        for port in range(self.ephemeral_start, self.ephemeral_end + 1):
            if (local_ip.value, port, remote_ip.value, remote_port) not in self._connections:
                return port
        self._c_ports_exhausted.value += 1
        raise EphemeralPortsExhausted(
            f"{self.host.name}: all {self.ephemeral_end - self.ephemeral_start + 1} "
            f"ephemeral ports hold live connections to {remote_ip}:{remote_port}"
        )

    # Passive open -------------------------------------------------------------------
    def listen(
        self,
        port: int,
        bind_ip: Optional[IPAddress] = None,
        backlog: int = 128,
        config: Optional[TCPConfig] = None,
    ) -> TCPListener:
        """Open a listening endpoint on ``port``."""
        lkey = (bind_ip.value if bind_ip else None, port)
        if lkey in self._listeners:
            raise PortInUseError(f"TCP port {port} already listening on {self.host.name}")
        listener = TCPListener(self, port, bind_ip, backlog, config)
        self._listeners[lkey] = listener
        return listener

    def remove_listener(self, listener: TCPListener) -> None:
        lkey = (listener.bind_ip.value if listener.bind_ip else None, listener.port)
        self._listeners.pop(lkey, None)

    def _find_listener(self, dst_ip: IPAddress, port: int) -> Optional[TCPListener]:
        listener = self._listeners.get((dst_ip.value, port))
        if listener is None:
            listener = self._listeners.get((None, port))
        return listener

    # Demux -----------------------------------------------------------------------------
    def _receive(self, datagram: IPDatagram, nic: Optional[NIC]) -> None:
        segment: TCPSegment = datagram.payload
        key = (datagram.dst.value, segment.dst_port, datagram.src.value, segment.src_port)
        tcb = self._connections.get(key)
        if tcb is not None:
            self._c_segments_demuxed.value += 1
            tcb.on_segment(segment)
            return
        flags = segment.flags
        if (flags & (FLAG_SYN | FLAG_ACK)) == FLAG_SYN:
            listener = self._find_listener(datagram.dst, segment.dst_port)
            if listener is not None:
                if listener.may_accept_syn():
                    self._passive_open(listener, datagram, segment)
                    return
                # A listener is bound but refused (backlog full): not the
                # same failure as a segment with no endpoint at all.
                self._c_syns_deflected.value += 1
                if self.reset_on_unmatched and not flags & FLAG_RST:
                    self._send_unmatched_rst(datagram, segment)
                return
        self._c_segments_unmatched.value += 1
        if self.reset_on_unmatched and not flags & FLAG_RST:
            self._send_unmatched_rst(datagram, segment)

    def _passive_open(
        self, listener: TCPListener, datagram: IPDatagram, syn: TCPSegment
    ) -> None:
        config = listener.config or self.config
        tcb = TCPConnection(
            self,
            datagram.dst,
            syn.dst_port,
            datagram.src,
            syn.src_port,
            config,
        )
        key = tcb.key
        self._track(key, tcb)
        listener.track_handshake(tcb)
        for observer in self.connection_observers:
            observer(tcb)
        tcb.open_passive(syn)

    def synthesize_passive_open(
        self,
        local_ip: IPAddress,
        local_port: int,
        remote_ip: IPAddress,
        remote_port: int,
        client_isn: int,
    ) -> Optional[TCPConnection]:
        """Open passively from supplied state: a connection whose SYN
        this host never received.

        The connection-repair entry point for a TCB that does not exist
        yet.  Given the 4-tuple and the peer's ISN, the connection is
        opened — observers attached, extensions and all — exactly as if
        the SYN had arrived; the caller then repairs it further through
        the repair section of :class:`TCPConnection`.  Returns ``None``
        unless a listener is bound and accepts.
        """
        if self.find_connection(local_ip, local_port, remote_ip, remote_port):
            return None
        listener = self._find_listener(local_ip, local_port)
        if listener is None or not listener.may_accept_syn():
            return None
        syn = TCPSegment(
            src_port=remote_port,
            dst_port=local_port,
            seq=client_isn & SEQ_MASK,
            ack=0,
            flags=FLAG_SYN,
            window=0,
        )
        datagram = IPDatagram(remote_ip, local_ip, PROTO_TCP, syn, syn.size)
        self._passive_open(listener, datagram, syn)
        return self.find_connection(local_ip, local_port, remote_ip, remote_port)

    def _send_unmatched_rst(self, datagram: IPDatagram, segment: TCPSegment) -> None:
        if segment.flags & FLAG_ACK:
            rst = make_rst(segment.dst_port, segment.src_port, segment.ack, 0, False)
        else:
            answer = (segment.seq + segment.sequence_space_length) & SEQ_MASK
            rst = make_rst(segment.dst_port, segment.src_port, 0, answer, True)
        self._c_resets_sent.value += 1
        self.host.ip_layer.send(
            datagram.src, PROTO_TCP, rst, rst.size, src=datagram.dst
        )

    # Outbound -----------------------------------------------------------------------------
    def send_segment(self, tcb: TCPConnection, segment: TCPSegment) -> None:
        self.host.ip_layer.send(
            tcb.remote_ip, PROTO_TCP, segment, segment.size, src=tcb.local_ip
        )

    # Lifecycle ------------------------------------------------------------------------------
    def connection_closed(self, tcb: TCPConnection) -> None:
        """Reap a connection that reached CLOSED (directly or out of
        TIME_WAIT): drop the table entry, return its ephemeral port to
        the pool, and let lifecycle observers release their state.

        By identity, not by key: a second ``close()`` on a socket whose
        TCB is already reaped arrives here too, and by then a recycled
        ephemeral port may have given its 4-tuple to a live connection."""
        key = tcb.key
        if self._connections.get(key) is not tcb:
            return
        del self._connections[key]
        self._c_tcbs_reaped.value += 1
        port = tcb.local_port
        if self.ephemeral_start <= port <= self.ephemeral_end:
            refs = self._port_refs.get(port, 0) - 1
            if refs <= 0:
                self._port_refs.pop(port, None)
                self._free_ports.append(port)
            else:
                self._port_refs[port] = refs
        for observer in self.close_observers:
            observer(tcb)

    def halt(self) -> None:
        """Crash (``Host.crash``): cancel every connection's timers."""
        for tcb in self._connections.values():
            tcb.cancel_timers()

    @property
    def connections(self) -> List[TCPConnection]:
        return list(self._connections.values())

    def find_connection(
        self, local_ip: IPAddress, local_port: int, remote_ip: IPAddress, remote_port: int
    ) -> Optional[TCPConnection]:
        return self._connections.get(
            (local_ip.value, local_port, remote_ip.value, remote_port)
        )
