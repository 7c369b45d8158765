"""TIME_WAIT as a compact record (RFC 793's 2·MSL wait; DESIGN §14 rule 5).

A connection in TIME_WAIT has nothing left to send or receive; the wait
needs the 4-tuple, the numbers an answer carries and one expiry, for
which the record is its own queue token (``Scheduler.arm``).
:class:`TimeWait` keeps that in the TCB's table slot, so the TCB is freed
when the wait begins (Linux's ``inet_timewait_sock``, FreeBSD's ``tcptw``).
It answers a segment as the TCB in TIME_WAIT did, except that payload or
a second FIN is acknowledged and dropped, and its window stays the one at
entry; a retransmission of the peer's FIN restarts the wait (RFC 793).
It keeps the socket only while something waits on it, and once closed
neither the socket nor the extension: a reset before the expiry leaves a
dead entry that pins the record alone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Union

from repro.errors import ConnectionClosed, ConnectionReset
from repro.tcp.constants import FLAG_ACK, FLAG_FIN, FLAG_RST, FLAG_SYN, SEQ_MASK, TCPState
from repro.tcp.input import CHALLENGE_LIMIT, CHALLENGE_WINDOW
from repro.tcp.recv_buffer import ReceiveBuffer
from repro.tcp.segment import TCPSegment
from repro.tcp.seqspace import unwrap
from repro.util.bytespan import ByteSpan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tcp.socket import TCPSocket
    from repro.tcp.tcb import TCPConnection

#: What a connection-table slot holds.
Endpoint = Union["TCPConnection", "TimeWait"]


class TimeWait:
    """One connection's TIME_WAIT: what a TCB in that state still answers."""

    __slots__ = (
        "layer", "local_ip", "local_port", "remote_ip", "remote_port",
        "snd_nxt", "rcv_nxt", "irs", "window", "ts_recent", "hold",
        "output_inhibited", "extension", "socket", "_unread",
        "state", "error", "seq", "_challenge_start", "_challenge_count",
    )

    #: TIME_WAIT implies our FIN is acknowledged and the peer's received.
    flight_size = 0
    fin_received = True

    def __init__(self, tcb: "TCPConnection") -> None:
        self.layer = tcb.layer
        self.local_ip = tcb.local_ip
        self.local_port = tcb.local_port
        self.remote_ip = tcb.remote_ip
        self.remote_port = tcb.remote_port
        self.snd_nxt = tcb.snd_nxt
        self.rcv_nxt = tcb.rcv_nxt
        self.irs = tcb.irs
        buffer = tcb.recv_buffer
        self.window = buffer.window
        self.ts_recent = tcb.last_ts_recv if tcb.use_timestamps else None
        self.hold = tcb.config.time_wait
        self.output_inhibited = tcb.output_inhibited
        self.extension: Any = tcb.extension
        socket = tcb.socket
        if socket is not None:
            socket._tcb = self
            if socket._closed_event is None and not socket._writers:
                socket = None  # nothing waits on it, so nothing is told
        self.socket: Optional["TCPSocket"] = socket
        # Bytes the application has not read yet stay readable.
        self._unread: Optional[ReceiveBuffer] = None
        if buffer.ready.length:
            self._unread = buffer
        elif buffer.retention is not None:
            buffer.retention.buffer = None
        self.state = TCPState.TIME_WAIT
        self.error: Optional[BaseException] = None
        self._challenge_start = tcb.input._challenge_window_start
        self._challenge_count = tcb.input._challenge_count
        sim = self.layer.sim
        self.seq = -1
        sim.arm(sim.now + self.hold, self, TimeWait._close)
        if "tcp" in sim.trace.categories:
            self.trace_event("time_wait")

    @property
    def key(self) -> tuple:
        return (self.local_ip.value, self.local_port, self.remote_ip.value, self.remote_port)

    @property
    def is_synchronized(self) -> bool:
        return self.state is TCPState.TIME_WAIT

    def rcv_offset(self, seq_abs: int) -> int:
        return seq_abs - self.irs - 1

    @property
    def recv_buffer(self) -> ReceiveBuffer:
        """The TCB's buffer while it holds bytes the application has not
        read; once everything is read, an empty one at the received
        stream's end (``rcv_nxt`` less the FIN), built when asked for: a
        record keeps no buffer for nothing."""
        unread = self._unread
        if unread is not None:
            return unread
        drained = ReceiveBuffer(1)
        drained.ready.head_offset = self.rcv_offset(self.rcv_nxt) - 1
        return drained

    def trace_event(self, event: str, **fields: Any) -> None:
        sim = self.layer.sim
        if "tcp" in sim.trace.categories:
            sim.trace.emit(
                sim.now, "tcp", event, host=self.layer.host.name,
                local=f"{self.local_ip}:{self.local_port}",
                remote=f"{self.remote_ip}:{self.remote_port}",
                state=self.state.value, **fields,
            )

    # -- the wire ---------------------------------------------------------------
    def on_segment(self, segment: TCPSegment) -> None:
        self.trace_event("recv", seg=segment)
        if segment.ts_val is not None and self.ts_recent is not None:
            self.ts_recent = segment.ts_val
        ext = self.extension
        if ext is not None and ext.on_segment_in(self, segment):
            return
        flags = segment.flags
        rcv_nxt, window = self.rcv_nxt, self.window
        seq_abs = unwrap(segment.seq, rcv_nxt)
        seg_len = segment.sequence_space_length
        if seg_len == 0:
            acceptable = seq_abs == rcv_nxt if window == 0 else rcv_nxt <= seq_abs < rcv_nxt + window
        else:
            acceptable = window != 0 and seq_abs < rcv_nxt + window and seq_abs + seg_len > rcv_nxt
        if not acceptable:
            if not flags & FLAG_RST:
                if flags & FLAG_FIN and seq_abs + segment.payload_length + 1 == rcv_nxt:
                    # The peer's FIN again: our ACK of it was lost, so the
                    # wait starts over (RFC 793), its old entry retired.
                    sim = self.layer.sim
                    sim.arm(sim.now + self.hold, self, TimeWait._close)
                self._challenge()
        elif flags & FLAG_RST:
            self._close(ConnectionReset("connection reset by peer"))
        elif flags & FLAG_SYN and seq_abs >= rcv_nxt:
            self._emit(FLAG_RST | FLAG_ACK)
            self._close(ConnectionReset("SYN received mid-connection"))
        elif flags & FLAG_ACK:
            if ext is None and unwrap(segment.ack, self.snd_nxt) > self.snd_nxt:
                self._challenge()
            elif segment.payload_length or (flags & FLAG_FIN and seq_abs == rcv_nxt):
                self.ack_now()

    def _challenge(self) -> None:
        """The rate-limited ACK of ``InputEngine.challenge_ack``, its
        budget carried over from the TCB."""
        now = self.layer.sim.now
        if now - self._challenge_start > CHALLENGE_WINDOW:
            self._challenge_start = now
            self._challenge_count = 0
        if self._challenge_count < CHALLENGE_LIMIT:
            self._challenge_count += 1
            self.ack_now()

    def ack_now(self) -> None:
        self._emit(FLAG_ACK)

    def try_output(self) -> None:
        """Nothing is left to send."""

    def _emit(self, flags: int) -> None:
        if self.output_inhibited:
            return
        ts_val = None if self.ts_recent is None else self.layer.sim.now
        segment = TCPSegment(
            self.local_port, self.remote_port, self.snd_nxt & SEQ_MASK,
            self.rcv_nxt & SEQ_MASK, flags, self.window, ts_val=ts_val, ts_ecr=self.ts_recent,
        )
        self.trace_event("send", seg=segment)
        self.layer.send_segment(self, segment)

    # -- the application and the stack ------------------------------------------
    def app_write(self, data: ByteSpan, start: int = 0) -> int:
        raise ConnectionClosed("write after close")

    def app_read(self, max_bytes: int) -> ByteSpan:
        return self.recv_buffer.read(max_bytes)

    def app_close(self) -> None:
        """Our FIN went long ago; once closed, close again as a TCB does."""
        if self.state is TCPState.CLOSED:
            self._close(None)

    def app_abort(self) -> None:
        if self.state is TCPState.TIME_WAIT:
            self._emit(FLAG_RST | FLAG_ACK)
        self._close(ConnectionReset("connection aborted locally"))

    def inject_receive_data(self, seq_abs: int, payload: ByteSpan) -> int:
        """The stream ended at the peer's FIN: nothing moves ``rcv_nxt``."""
        return 0

    def cancel_timers(self) -> None:
        """Retire the expiry (a crash: ``TCPLayer.halt``)."""
        self.layer.sim.retire(self)

    def _close(self, error: Optional[BaseException] = None) -> None:
        """Expiry, a RST or an abort: as ``TCPConnection._enter_closed``."""
        previous = self.state
        self.state = TCPState.CLOSED
        self.error = error
        self.layer.sim.retire(self)
        self.layer.connection_closed(self)
        self.trace_event("closed", previous=previous.value, error=repr(error))
        socket = self.socket
        self.socket = self.extension = None
        if socket is not None:
            if error is not None:
                socket._on_error(error)
            socket._on_closed()
