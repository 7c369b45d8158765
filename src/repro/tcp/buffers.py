"""Buffer management engine: byte streams and sequence-space translation.

Owns the send and receive buffers of one connection and the mapping
between *absolute* (unwrapped) sequence numbers and *stream offsets*
(SYN = seq 0, first payload byte = offset 0).  The other engines never
do that arithmetic themselves — they ask this one, so a re-anchoring of
the sequence space (:meth:`~repro.tcp.tcb.TCPConnection.adopt_send_isn`)
is a single-point change.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.tcp.config import TCPConfig
from repro.tcp.constants import TCPState
from repro.tcp.recv_buffer import ReceiveBuffer
from repro.tcp.send_buffer import SendBuffer
from repro.util.bytespan import ByteSpan, concat

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tcp.tcb import TCPConnection


class BufferManager:
    """Send/receive byte streams plus seq-number ↔ offset translation."""

    __slots__ = ("conn", "send_buffer", "recv_buffer")

    def __init__(self, conn: "TCPConnection", config: TCPConfig) -> None:
        self.conn = conn
        self.send_buffer = SendBuffer(config.snd_buffer)
        self.recv_buffer = ReceiveBuffer(config.rcv_buffer)

    # -- sequence-space translation -----------------------------------------
    def snd_offset(self, seq_abs: int) -> int:
        """Send-stream offset of an absolute sequence number."""
        return seq_abs - self.conn.iss - 1

    def snd_seq(self, offset: int) -> int:
        return self.conn.iss + 1 + offset

    def rcv_offset(self, seq_abs: int) -> int:
        return seq_abs - self.conn.irs - 1

    # -- out-of-band receive-stream repair ----------------------------------
    def inject_receive_data(self, seq_abs: int, payload: ByteSpan) -> int:
        """Insert recovered client bytes into the receive stream.

        Used by the ST-TCP backup for bytes recovered over the UDP
        channel or from the packet logger (§4.2, §3.2).  Touches *only*
        the receive stream — crucially not the ACK machinery, because a
        synthetic ACK arriving while a replica is still in SYN_RCVD
        would anchor its send sequence space against the wrong ISN and
        skew the whole mapping.  Returns how far ``rcv_nxt`` advanced.
        """
        conn = self.conn
        if not (conn.is_synchronized or conn.state is TCPState.SYN_RCVD):
            return 0
        offset = self.rcv_offset(seq_abs)
        advanced = self.recv_buffer.insert(offset, payload)
        conn.bytes_received += payload.length
        if advanced > 0:
            conn.rcv_nxt += advanced
            if conn.on_rcv_advance is not None:
                conn.on_rcv_advance(conn.rcv_nxt)
            if conn.on_readable is not None:
                conn.on_readable()
        return advanced

    def fast_forward(self, rcv_offset: int, snd_offset: int) -> None:
        """Jump both empty streams to mid-connection offsets.

        Snapshot handoff (cluster election): a replacement backup adopts
        a connection at the primary's quiescent position instead of
        replaying its history.  Both buffers must be empty — the caller
        guarantees quiescence.
        """
        self.recv_buffer.fast_forward(rcv_offset)
        self.send_buffer.fast_forward(snd_offset)

    def fetch_received_range(self, start_offset: int, stop_offset: int) -> ByteSpan:
        """Serve receive-stream bytes [start, stop) for backup recovery.

        Bytes may live in the retention (second) buffer, the unread part
        of the receive buffer, or both.
        """
        pieces: List[ByteSpan] = []
        retention = self.recv_buffer.retention
        if retention is not None:
            fetch = getattr(retention, "fetch", None)
            if fetch is not None:
                pieces.append(fetch(start_offset, stop_offset))
        pieces.append(self.recv_buffer.peek_unread(start_offset, stop_offset))
        return concat(pieces)
