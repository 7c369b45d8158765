"""Output engine: segmentization, send-policy decisions, emission.

Owns the decision of *what goes on the wire and when* — the sender-side
sliding window walk (flow × congestion window), Nagle, FIN piggybacking,
the delayed-ACK policy and its timer, window-update ACKs after
application reads, and the final build-and-transmit step every segment
funnels through (:meth:`emit` → :meth:`transmit`).  On an
:attr:`~repro.tcp.tcb.TCPConnection.output_inhibited` connection
:meth:`emit` keeps the bookkeeping a sent segment causes and builds
nothing, so whatever reaches :meth:`transmit` goes to IP.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.tcp.config import TCPConfig
from repro.tcp.constants import (
    DELACK_SEGMENT_THRESHOLD,
    DELACK_TIMEOUT,
    FLAG_ACK,
    FLAG_FIN,
    FLAG_PSH,
    FLAG_RST,
    FLAG_SYN,
    SEQ_MASK,
    TCPState,
)
from repro.tcp.segment import SegmentTemplate, TCPSegment
from repro.tcp.seqspace import unwrap, wrap
from repro.tcp.timers import RestartableTimer
from repro.util.bytespan import EMPTY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tcp.tcb import TCPConnection

#: States in which :meth:`OutputEngine.try_output` may send payload.
_OUTPUT_STATES = (
    TCPState.ESTABLISHED,
    TCPState.FIN_WAIT_1,
    TCPState.CLOSE_WAIT,
    TCPState.CLOSING,
    TCPState.LAST_ACK,
)


class OutputEngine:
    """Everything that decides to put a segment on the wire."""

    __slots__ = (
        "conn",
        "delack_timer",
        "segments_since_ack",
        "ack_scheduled",
        "last_advertised_window",
        "last_data_send_time",
        "_template",
    )

    def __init__(self, conn: "TCPConnection", config: TCPConfig) -> None:
        self.conn = conn
        self.delack_timer = RestartableTimer(conn.sim, self._on_delack, "delack")
        # Delayed-ACK state.
        self.segments_since_ack = 0
        self.ack_scheduled = False
        # Window-update bookkeeping.
        self.last_advertised_window = config.rcv_buffer
        # RFC 2861 congestion-window validation.
        self.last_data_send_time: Optional[float] = None
        # The per-connection invariant header fields are precomputed once
        # (lazily, at the first segment built — the remote port is final
        # by then) and only seq/ack/win/flags vary per segment.
        self._template: Optional[SegmentTemplate] = None

    # -- the sender-side window walk -----------------------------------------
    def try_output(self) -> None:
        """Send whatever the windows currently allow.

        The congestion window, the stream origin ``iss + 1`` and the send
        tail are read once per call (DESIGN §13 rule 7); sequence state is
        read afresh around every ``emit``.
        """
        conn = self.conn
        if conn.state not in _OUTPUT_STATES:
            return
        if (
            self.last_data_send_time is not None
            and conn.snd_max == conn.snd_una
            and conn.sim.now - self.last_data_send_time > conn.retransmit.rtt.rto
        ):
            # Idle longer than an RTO: restart from the initial window
            # (RFC 2861, as Linux does).
            conn.cc.restart_after_idle()
        cwnd = int(conn.cc.cwnd)
        usable_window = conn.snd_wnd if conn.snd_wnd < cwnd else cwnd
        origin = conn.iss + 1
        tail = conn.send_buffer.tail_offset
        sent_something = False
        while True:
            in_flight = conn.snd_nxt - conn.snd_una
            window_left = usable_window - in_flight
            next_offset = conn.snd_nxt - origin
            available = tail - next_offset
            if available > 0 and window_left > 0:
                mss = conn.mss
                chunk = available if available < mss else mss
                if window_left < chunk:
                    chunk = window_left
                if (
                    conn.config.nagle
                    and chunk < mss
                    and in_flight > 0
                    and not conn._fin_pending
                ):
                    break
                at_tail = next_offset + chunk == tail
                fin_now = (
                    conn._fin_pending
                    and not conn._fin_sent
                    and at_tail
                    and window_left > chunk
                )
                flags = (FLAG_ACK | FLAG_PSH) if at_tail else FLAG_ACK
                if fin_now:
                    flags |= FLAG_FIN
                self.emit(flags, conn.snd_nxt, chunk)
                conn.snd_nxt += chunk
                if fin_now:
                    self._note_fin_sent(conn.snd_nxt)
                    conn.snd_nxt += 1
                if conn.snd_nxt > conn.snd_max:
                    conn.snd_max = conn.snd_nxt
                if conn.retransmit.timing is None and not conn.output_inhibited:
                    conn.retransmit.timing = (conn.snd_nxt, conn.sim.now)
                conn.retransmit.arm_rto_if_idle()
                sent_something = True
                continue
            # No payload sendable: maybe a lone FIN.
            if (
                conn._fin_pending
                and not conn._fin_sent
                and available == 0
                and window_left > 0
            ):
                self.emit(FLAG_ACK | FLAG_FIN, conn.snd_nxt)
                self._note_fin_sent(conn.snd_nxt)
                conn.snd_nxt += 1
                conn.snd_max = max(conn.snd_max, conn.snd_nxt)
                conn.retransmit.arm_rto_if_idle()
                sent_something = True
            break
        # Zero-window: arm the persist timer when data waits but the peer
        # advertises nothing and nothing is in flight to trigger an ACK.
        if (
            not sent_something
            and conn.snd_wnd == 0
            and tail > conn.snd_nxt - origin
            and conn.snd_max == conn.snd_una
        ):
            conn.retransmit.arm_persist()
        ext = conn.extension
        if ext is not None:
            ext.after_output(conn)

    def _note_fin_sent(self, seq_abs: int) -> None:
        conn = self.conn
        conn._fin_sent = True
        conn._fin_seq = seq_abs

    # -- segment build + handoff ---------------------------------------------
    def send_syn(self, with_ack: bool) -> None:
        conn = self.conn
        flags = FLAG_SYN | (FLAG_ACK if with_ack else 0)
        self.emit(flags, conn.iss, mss_option=conn.config.mss)

    def emit(
        self,
        flags: int,
        seq_abs: int,
        length: int = 0,
        mss_option: Optional[int] = None,
    ) -> None:
        """Send one segment carrying ``length`` send-buffer bytes from ``seq_abs``.

        The bookkeeping a sent segment causes comes first, so an
        output-inhibited connection keeps the state of one whose segments
        reach the wire; only then, and only on a connection that may
        send, is the payload sliced and the segment built.
        """
        conn = self.conn
        window = conn.recv_buffer.window
        if flags & FLAG_ACK:
            self.segments_since_ack = 0
            if self.ack_scheduled:
                # The delayed-ACK timer runs only while an ACK is owed.
                self.ack_scheduled = False
                self.delack_timer.stop()
            self.last_advertised_window = window
        if length or flags & (FLAG_SYN | FLAG_FIN):
            self.last_data_send_time = conn.sim.now
        if conn.output_inhibited:
            return
        if length:
            start = seq_abs - conn.iss - 1  # snd_offset, inline
            payload = conn.send_buffer.data_range(start, start + length)
        else:
            payload = EMPTY
        template = self._template
        if template is None:
            template = SegmentTemplate(conn.local_port, conn.remote_port)
            self._template = template
        self.transmit(
            template.build(
                seq_abs & SEQ_MASK,  # wrap, inline
                conn.rcv_nxt & SEQ_MASK if flags & FLAG_ACK else 0,
                flags,
                window if window < 0xFFFF else 0xFFFF,
                payload,
                mss_option,
            )
        )

    def transmit(self, segment: TCPSegment) -> None:
        """Hand a built segment to IP."""
        conn = self.conn
        conn.segments_sent += 1
        conn.bytes_sent += segment.payload_length
        trace = conn.sim.trace
        if "tcp" in trace.categories:
            conn.trace_event("send", seg=segment)
        conn.layer.send_segment(conn, segment)

    def send_rst_for(self, segment: TCPSegment) -> None:
        conn = self.conn
        if conn.output_inhibited:
            return
        if segment.flags & FLAG_ACK:
            rst = TCPSegment(
                conn.local_port, conn.remote_port, segment.ack, 0, FLAG_RST, 0
            )
        else:
            rst = TCPSegment(
                conn.local_port,
                conn.remote_port,
                0,
                wrap(unwrap(segment.seq, conn.rcv_nxt) + segment.sequence_space_length),
                FLAG_RST | FLAG_ACK,
                0,
            )
        self.transmit(rst)

    # -- ACK emission --------------------------------------------------------
    def ack_now(self) -> None:
        """Send an immediate pure ACK."""
        conn = self.conn
        if conn.state in (TCPState.CLOSED, TCPState.LISTEN, TCPState.SYN_SENT):
            return
        self.emit(FLAG_ACK, conn.snd_nxt)

    def schedule_ack(self, advanced_segments: int) -> None:
        """Delayed-ACK policy after receiving in-order data."""
        self.segments_since_ack += advanced_segments
        if self.segments_since_ack >= DELACK_SEGMENT_THRESHOLD:
            self.ack_now()
            return
        if not self.ack_scheduled:
            self.ack_scheduled = True
            if not self.conn.output_inhibited:
                self.delack_timer.start(DELACK_TIMEOUT)

    def _on_delack(self) -> None:
        if self.ack_scheduled:
            self.ack_now()

    def maybe_send_window_update(self) -> None:
        """After a read or a retention release, advertise a window that
        reopened by at least ``min(2 * mss, rcv_buffer / 2)`` from one
        last advertised below that threshold."""
        conn = self.conn
        threshold = 2 * conn.mss
        half_buffer = conn.config.rcv_buffer // 2
        if half_buffer < threshold:
            threshold = half_buffer
        last = self.last_advertised_window
        if last < threshold and conn.recv_buffer.window - last >= threshold:
            self.ack_now()
