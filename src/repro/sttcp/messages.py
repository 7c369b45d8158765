"""Messages on the primary↔backup UDP channel (§4.2–4.3).

The paper quotes "the total length (including all header overheads down to
Ethernet) of an ack packet is 128 bytes"; with 18 B Ethernet + 20 B IP +
8 B UDP overhead that leaves 82 bytes of payload, which is what the small
messages here declare.  Retransmission-data messages size themselves by
their payload.

Connections are identified by ``(client_ip, client_port)`` — the service
IP and port are fixed per server pair.
"""

from __future__ import annotations

from typing import Tuple

from repro.net.addresses import IPAddress
from repro.util.bytespan import ByteSpan

#: Payload size making a small channel message 128 bytes on the wire.
SMALL_MESSAGE_SIZE = 82

#: Fixed header cost of a RETX_DATA message before its payload.
RETX_DATA_HEADER = 32

ConnKey = Tuple[int, int]  # (client_ip.value, client_port)


def conn_key(client_ip: IPAddress, client_port: int) -> ConnKey:
    return (client_ip.value, client_port)


class ChannelMessage:
    """Base class; subclasses declare their modelled wire payload size."""

    __slots__ = ()

    @property
    def wire_size(self) -> int:
        return SMALL_MESSAGE_SIZE


class Heartbeat(ChannelMessage):
    """Periodic liveness beacon (§4.2)."""

    __slots__ = ("sender", "sequence")

    def __init__(self, sender: str, sequence: int) -> None:
        self.sender = sender  # "primary" | "backup"
        self.sequence = sequence

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<HB from={self.sender} #{self.sequence}>"


class BackupAck(ChannelMessage):
    """The backup's LastByteAcked report (§4.3).

    ``ack_seq`` is the 32-bit sequence number one past the last in-order
    client byte the backup holds (its NextByteExpected), i.e. the primary
    may discard retained bytes strictly below it.
    """

    __slots__ = ("key", "ack_seq")

    def __init__(self, key: ConnKey, ack_seq: int) -> None:
        self.key = key
        self.ack_seq = ack_seq

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<BackupAck {self.key} ack={self.ack_seq}>"


class AckReply(ChannelMessage):
    """The primary's response to a BackupAck; doubles as a heartbeat
    ("we use the acks sent by the backup server and its response sent back
    by the primary ... as a mechanism to monitor liveness", §4.3)."""

    __slots__ = ("key", "ack_seq")

    def __init__(self, key: ConnKey, ack_seq: int) -> None:
        self.key = key
        self.ack_seq = ack_seq


class RetxRequest(ChannelMessage):
    """The backup asks for client bytes it failed to tap (§4.2).

    The range is [start_seq, stop_seq) in 32-bit sequence space.
    """

    __slots__ = ("key", "start_seq", "stop_seq")

    def __init__(self, key: ConnKey, start_seq: int, stop_seq: int) -> None:
        self.key = key
        self.start_seq = start_seq
        self.stop_seq = stop_seq

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RetxRequest {self.key} [{self.start_seq},{self.stop_seq})>"


class RetxData(ChannelMessage):
    """A chunk of recovered client bytes from the primary's buffers.

    ``fin`` marks the chunk that ends at the client's FIN, which the
    primary received: the FIN takes the sequence number after the payload
    (the payload is empty when the FIN is all that was asked for).  That
    chunk's ``acked`` is how far the client had acknowledged the server's
    stream (32-bit): a backup whose tap lost the FIN may have lost the
    client's last ACKs with it.
    """

    __slots__ = ("key", "seq", "payload", "fin", "acked")

    def __init__(
        self, key: ConnKey, seq: int, payload: ByteSpan, fin: bool = False, acked: int = 0
    ) -> None:
        self.key = key
        self.seq = seq
        self.payload = payload
        self.fin = fin
        self.acked = acked

    @property
    def wire_size(self) -> int:
        return RETX_DATA_HEADER + len(self.payload)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RetxData {self.key} seq={self.seq} len={len(self.payload)} fin={self.fin}>"
