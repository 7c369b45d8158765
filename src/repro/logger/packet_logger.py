"""The in-memory packet logger node (§3.2).

"This logger machine logs all packets on the Ethernet in its main memory
for a bounded amount of time."  The logger taps the medium like the backup
does, retains the client→server payload stream for ``retain_seconds``
(sized by the maximum failover time), and serves range queries over UDP.
The logger introduces no forwarding delay — it taps, it does not relay.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.ip.datagram import PROTO_TCP, IPDatagram
from repro.logger.messages import LoggerData, LoggerDone, LoggerQuery
from repro.net.addresses import IPAddress
from repro.net.nic import NIC
from repro.tcp.segment import TCPSegment
from repro.tcp.seqspace import unwrap, wrap
from repro.util.bytespan import ByteSpan

#: Default UDP port of the logger query service.
LOGGER_PORT = 39100

#: Payload ceiling per LoggerData chunk.
LOGGER_CHUNK = 1400


class _StreamLog:
    """Retained client→server payload history for one connection."""

    __slots__ = ("last_abs", "entries", "bytes_logged")

    def __init__(self, isn_abs: int) -> None:
        self.last_abs = isn_abs
        self.entries: List[Tuple[float, int, ByteSpan]] = []  # (time, seq_abs, span)
        self.bytes_logged = 0

    def record(self, now: float, seq32: int, payload: ByteSpan) -> None:
        seq_abs = unwrap(seq32, self.last_abs)
        self.last_abs = max(self.last_abs, seq_abs + len(payload))
        self.entries.append((now, seq_abs, payload))
        self.bytes_logged += len(payload)

    def prune(self, horizon: float) -> None:
        keep_from = 0
        for index, (when, _seq, _span) in enumerate(self.entries):
            if when >= horizon:
                keep_from = index
                break
        else:
            keep_from = len(self.entries)
        if keep_from:
            del self.entries[:keep_from]

    def collect(self, start_abs: int, stop_abs: int) -> List[Tuple[int, ByteSpan]]:
        """All stored byte ranges overlapping [start, stop)."""
        pieces = []
        for _when, seq_abs, span in self.entries:
            lo = max(seq_abs, start_abs)
            hi = min(seq_abs + len(span), stop_abs)
            if lo < hi:
                pieces.append((lo, span.slice(lo - seq_abs, hi - seq_abs)))
        return pieces


class PacketLogger:
    """A logging node: promiscuous tap + UDP query service."""

    def __init__(
        self,
        host: Any,
        service_ip: IPAddress,
        service_port: int,
        retain_seconds: float = 60.0,
        port: int = LOGGER_PORT,
    ) -> None:
        self.host = host
        self.sim = host.sim
        self.service_ip = service_ip
        self.service_port = service_port
        self.retain_seconds = retain_seconds
        self.port = port
        self._streams: Dict[Tuple[int, int], _StreamLog] = {}
        host.ip_layer.add_tap(self._tap)
        self.query_socket = host.udp.socket(port)
        self.query_socket.on_datagram = self._on_query
        self.queries_served = 0
        self.bytes_served = 0

    @property
    def address(self) -> Tuple[IPAddress, int]:
        return (self.host.interfaces[0].ip, self.port)

    @property
    def total_bytes_logged(self) -> int:
        return sum(stream.bytes_logged for stream in self._streams.values())

    @property
    def retained_bytes(self) -> int:
        return sum(
            sum(len(span) for _t, _s, span in stream.entries)
            for stream in self._streams.values()
        )

    # Tap side -----------------------------------------------------------------
    def _tap(self, datagram: IPDatagram, nic: Optional[NIC]) -> None:
        if datagram.protocol != PROTO_TCP or datagram.dst != self.service_ip:
            return  # only the client→server direction needs logging
        segment: TCPSegment = datagram.payload
        if segment.dst_port != self.service_port:
            return
        key = (datagram.src.value, segment.src_port)
        if segment.is_syn:
            self._streams[key] = _StreamLog(segment.seq)
            return
        stream = self._streams.get(key)
        if stream is None or segment.payload_length == 0:
            return
        stream.record(self.sim.now, segment.seq, segment.payload)
        stream.prune(self.sim.now - self.retain_seconds)

    # Query side ------------------------------------------------------------------
    def _on_query(self, message: Any, addr: tuple) -> None:
        if not isinstance(message, LoggerQuery):
            return
        self.queries_served += 1
        stream = self._streams.get(message.key)
        recovered = 0
        if stream is not None:
            start_abs = unwrap(message.start_seq, stream.last_abs)
            if message.stop_seq == message.start_seq:
                # Open-ended query: everything retained from start on.
                stop_abs = stream.last_abs
            else:
                stop_abs = unwrap(message.stop_seq, stream.last_abs)
            for seq_abs, span in stream.collect(start_abs, stop_abs):
                for piece_start in range(0, len(span), LOGGER_CHUNK):
                    piece = span.slice(
                        piece_start, min(piece_start + LOGGER_CHUNK, len(span))
                    )
                    reply = LoggerData(message.key, wrap(seq_abs + piece_start), piece)
                    self.query_socket.send_to(addr, reply, reply.wire_size)
                    recovered += len(piece)
        self.bytes_served += recovered
        done = LoggerDone(message.key, recovered)
        self.query_socket.send_to(addr, done, done.wire_size)
