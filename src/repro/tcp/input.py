"""Input engine: sequence validation, the state machine, ACK processing.

Owns the inbound half of the connection — segment dispatch per TCP
state, RFC 793 acceptability checks, cumulative-ACK processing with fast
retransmit/recovery (NewReno partial ACKs), send-window updates, payload
reassembly hand-off, and FIN processing.  The connection's
``extension``, when set, hooks in at three points: ``on_segment_in`` (may
consume a segment before dispatch), ``on_ack`` (may adjust the unwrapped
cumulative ACK before standard processing sees it) and ``on_rcv_advance``
(the in-order receive stream moved).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConnectionRefused, ConnectionReset
from repro.tcp.congestion import DUPACK_THRESHOLD
from repro.tcp.constants import (
    FLAG_ACK,
    FLAG_FIN,
    FLAG_RST,
    FLAG_SYN,
    PERSIST_TIMEOUT_MIN,
    SEQ_MASK,
    SEQ_SPACE,
    TCPState,
)
from repro.tcp.segment import TCPSegment
from repro.tcp.seqspace import HALF_SPACE, unwrap

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tcp.tcb import TCPConnection

#: Challenge-ACK budget (RFC 5961): at most this many per window.
CHALLENGE_LIMIT = 5
CHALLENGE_WINDOW = 0.1


class InputEngine:
    """Inbound segment processing for one connection."""

    __slots__ = (
        "conn",
        "dupacks",
        "fast_recovery_point",
        "_challenge_window_start",
        "_challenge_count",
    )

    def __init__(self, conn: "TCPConnection") -> None:
        self.conn = conn
        self.dupacks = 0
        self.fast_recovery_point: int | None = None
        # RFC 5961-style challenge-ACK rate limiting: without it, two
        # endpoints with momentarily inconsistent state can ping-pong
        # pure ACKs forever.
        self._challenge_window_start = 0.0
        self._challenge_count = 0

    # -- entry point ---------------------------------------------------------
    def on_segment(self, segment: TCPSegment) -> None:
        """Process one inbound (or tapped/injected) segment."""
        conn = self.conn
        conn.segments_received += 1
        trace = conn.sim.trace
        if "tcp" in trace.categories:
            conn.trace_event("recv", seg=segment)
        ext = conn.extension
        if ext is not None and ext.on_segment_in(conn, segment):
            return
        if conn.state is TCPState.SYN_SENT:
            self._segment_in_syn_sent(segment)
        elif conn.state is TCPState.CLOSED:
            pass  # late segment after close; the layer answers with RST
        else:
            self._segment_in_general(segment)

    # -- SYN_SENT ------------------------------------------------------------
    def _segment_in_syn_sent(self, segment: TCPSegment) -> None:
        conn = self.conn
        flags = segment.flags
        ack_abs = unwrap(segment.ack, conn.snd_nxt) if flags & FLAG_ACK else None
        ack_acceptable = ack_abs is not None and conn.snd_una < ack_abs <= conn.snd_nxt
        if flags & FLAG_ACK and not ack_acceptable:
            if not flags & FLAG_RST:
                conn.output.send_rst_for(segment)
            return
        if flags & FLAG_RST:
            if ack_acceptable:
                conn._enter_closed(ConnectionRefused("connection refused"))
            return
        if not flags & FLAG_SYN:
            return
        conn.irs = segment.seq
        conn.rcv_nxt = conn.irs + 1
        if segment.mss_option is not None:
            conn.mss = min(conn.mss, segment.mss_option)
            conn.cc.mss = conn.mss
        if ack_acceptable:
            assert ack_abs is not None
            conn.snd_una = ack_abs  # our SYN is acked
            conn.retransmit.retransmit_count = 0
            conn.retransmit.rto_timer.stop()
            self._update_send_window(segment, conn.irs, ack_abs)
            conn.state = TCPState.ESTABLISHED
            conn.trace_event("established")
            conn.output.ack_now()
            if conn.socket is not None:
                conn.socket._on_established()
                if conn.state is TCPState.CLOSED:
                    return  # aborted from the wake-up: the engines are let go
            conn.output.try_output()
        else:
            # Simultaneous open.
            conn.state = TCPState.SYN_RCVD
            conn.output.send_syn(with_ack=True)
            conn.retransmit.arm_rto()

    # -- everything else -----------------------------------------------------
    def _segment_in_general(self, segment: TCPSegment) -> None:
        conn = self.conn
        flags = segment.flags
        rcv_nxt = conn.rcv_nxt
        seq = segment.seq
        # unwrap(seq, rcv_nxt), inline: the signed distance inside half the
        # sequence space.  A tie at exactly half of it, a result below zero
        # and a value out of 32-bit range are left to unwrap itself.
        delta = (seq - rcv_nxt) & SEQ_MASK
        if delta > HALF_SPACE:
            delta -= SEQ_SPACE
        seq_abs = rcv_nxt + delta
        if seq_abs < 0 or delta == HALF_SPACE or not 0 <= seq <= SEQ_MASK:
            seq_abs = unwrap(seq, rcv_nxt)
        seg_len = segment.payload_length
        if flags & (FLAG_SYN | FLAG_FIN):
            seg_len = segment.sequence_space_length
        # RFC 793 acceptability against the advertised window.
        window = conn.recv_buffer.window
        if seg_len == 0:
            if window == 0:
                acceptable = seq_abs == rcv_nxt
            else:
                acceptable = rcv_nxt <= seq_abs < rcv_nxt + window
        else:
            acceptable = (
                window != 0 and seq_abs < rcv_nxt + window and seq_abs + seg_len > rcv_nxt
            )
        if not acceptable:
            if not flags & FLAG_RST:
                # Duplicate or out-of-window: re-ACK our current state
                # (rate-limited so two confused peers cannot loop).
                self.challenge_ack()
            return
        if flags & FLAG_RST:
            conn._enter_closed(ConnectionReset("connection reset by peer"))
            return
        if flags & FLAG_SYN:
            if conn.state is TCPState.SYN_RCVD and seq_abs == conn.irs:
                # Retransmitted SYN: re-send our SYN/ACK.
                conn.output.send_syn(with_ack=True)
                return
            if seq_abs >= conn.rcv_nxt:
                # SYN inside the window is a protocol violation.
                conn.output.emit(FLAG_RST | FLAG_ACK, conn.snd_nxt)
                conn._enter_closed(ConnectionReset("SYN received mid-connection"))
                return
        if not flags & FLAG_ACK:
            return
        if not self._process_ack(segment, seq_abs):
            return
        if segment.payload_length > 0:
            self._process_payload(segment, seq_abs)
        if flags & FLAG_FIN and conn.state is not TCPState.CLOSED:
            self.process_fin(seq_abs + segment.payload_length)

    # -- ACK processing ------------------------------------------------------
    def _process_ack(self, segment: TCPSegment, seq_abs: int) -> bool:
        """Returns False when processing must stop (segment dropped)."""
        conn = self.conn
        ack = segment.ack
        snd_una = conn.snd_una
        delta = (ack - snd_una) & SEQ_MASK  # unwrap(ack, snd_una), inline
        if delta > HALF_SPACE:
            delta -= SEQ_SPACE
        ack_abs = snd_una + delta
        if ack_abs < 0 or delta == HALF_SPACE or not 0 <= ack <= SEQ_MASK:
            ack_abs = unwrap(ack, snd_una)
        ext = conn.extension
        if ext is not None:
            ack_abs = ext.on_ack(conn, segment, ack_abs)
        if conn.state is TCPState.SYN_RCVD:
            if conn.snd_una <= ack_abs <= conn.snd_max:
                conn.retransmit.retransmit_count = 0
                conn.retransmit.rto_timer.stop()
                conn.state = (
                    TCPState.FIN_WAIT_1 if conn._fin_pending else TCPState.ESTABLISHED
                )
                self._update_send_window(segment, seq_abs, ack_abs, force=True)
                conn.trace_event("established")
                if ack_abs > conn.snd_una:
                    conn.snd_una = ack_abs
                if conn.socket is not None:
                    conn.socket._on_established()
                    if conn.state is TCPState.CLOSED:
                        return False  # aborted from the wake-up
            else:
                conn.output.send_rst_for(segment)
                return False
        if ack_abs > conn.snd_max:
            self.challenge_ack()
            return False
        # Window update comes first (RFC 793 ACK processing order): the
        # try_output triggered by a new ACK must see the window this very
        # segment advertises, or a sender can overshoot into a window the
        # peer just closed.
        self._update_send_window(segment, seq_abs, ack_abs)
        if ack_abs > conn.snd_una:
            self.apply_cumulative_ack(ack_abs)
        elif (
            ack_abs == conn.snd_una
            and segment.payload_length == 0
            and not segment.flags & (FLAG_SYN | FLAG_FIN)
            and conn.snd_max > conn.snd_una
        ):
            self._handle_duplicate_ack()
        # State transitions driven by our FIN being acknowledged
        # (``settle_fin``, inline: this runs once per segment).
        if conn._fin_sent and conn._fin_seq is not None and conn.snd_una > conn._fin_seq:
            conn._fin_acked = True
            if conn.state is TCPState.FIN_WAIT_1:
                conn.state = TCPState.FIN_WAIT_2
            elif conn.state is TCPState.CLOSING:
                # The peer's FIN came before: nothing else in this segment
                # is the TCB's to process.
                conn._enter_time_wait()
                return False
            elif conn.state is TCPState.LAST_ACK:
                conn._enter_closed(None)
                return False
        return conn.state is not TCPState.CLOSED  # not aborted from a writer's wake-up

    def settle_fin(self) -> bool:
        """``_process_ack``'s transitions for an ACK applied without a
        segment (a replica's, once its output reaches it): False once the
        TCB has left, into TIME_WAIT or CLOSED."""
        conn = self.conn
        if not (conn._fin_sent and conn._fin_seq is not None and conn.snd_una > conn._fin_seq):
            return True
        conn._fin_acked = True
        if conn.state is TCPState.FIN_WAIT_1:
            conn.state = TCPState.FIN_WAIT_2
        elif conn.state is TCPState.CLOSING:
            conn._enter_time_wait()
            return False
        elif conn.state is TCPState.LAST_ACK:
            conn._enter_closed(None)
            return False
        return True

    def apply_cumulative_ack(self, ack_abs: int) -> None:
        """Advance ``snd_una`` to ``ack_abs`` with all side effects: buffer
        release, RTT sampling, congestion control, recovery continuation,
        RTO management, and a follow-up output pass."""
        conn = self.conn
        retransmit = conn.retransmit
        bytes_acked = ack_abs - conn.snd_una
        previous_una = conn.snd_una
        conn.snd_una = ack_abs
        self.dupacks = 0
        retransmit.retransmit_count = 0
        if retransmit.rtt.backoff_count:
            retransmit.rtt.reset_backoff()
        # Release acknowledged payload bytes (exclude SYN/FIN seq space).
        data_ack_offset = ack_abs - conn.iss - 1  # snd_offset, inline
        if conn._fin_seq is not None and ack_abs > conn._fin_seq:
            data_ack_offset = conn.snd_offset(conn._fin_seq)
        if data_ack_offset > conn.send_buffer.una_offset:
            conn.send_buffer.ack_to(data_ack_offset)
            if conn.socket is not None:
                conn.socket._pump_writers()
                if conn.state is TCPState.CLOSED:
                    return  # aborted from the wake-up: the engines are let go
        # RTT sample (Karn-protected: timing is cleared on retransmission).
        if retransmit.timing is not None and ack_abs >= retransmit.timing[0]:
            sample = conn.sim.now - retransmit.timing[1]
            retransmit.rtt.on_measurement(sample)
            retransmit.timing = None
        # Congestion control.
        if conn.cc.in_fast_recovery:
            if (
                self.fast_recovery_point is not None
                and ack_abs >= self.fast_recovery_point
            ):
                conn.cc.exit_fast_recovery()
                self.fast_recovery_point = None
            else:
                # NewReno partial ACK: retransmit the next hole at once.
                conn.cc.on_partial_ack(bytes_acked)
                retransmit.retransmit_head()
        else:
            conn.cc.on_ack_new(bytes_acked)
        # Go-back-N continuation after an RTO (Linux-style slow-start
        # retransmission driven by returning ACKs).
        if retransmit.recovery_point is not None:
            if ack_abs >= retransmit.recovery_point:
                retransmit.recovery_point = None
            elif ack_abs > previous_una and ack_abs < conn.snd_max:
                retransmit.retransmit_head()
        # Retransmission timer: restart while data remains outstanding.
        if conn.snd_una < conn.snd_max:
            retransmit.arm_rto()
        else:
            retransmit.rto_timer.stop()
            retransmit.recovery_point = None
        conn.output.try_output()

    def _handle_duplicate_ack(self) -> None:
        conn = self.conn
        conn.dupacks_received += 1
        self.dupacks += 1
        if conn.cc.in_fast_recovery:
            conn.cc.on_dupack_in_recovery()
            conn.output.try_output()
            return
        if self.dupacks == DUPACK_THRESHOLD:
            self.fast_recovery_point = conn.snd_max
            conn.cc.enter_fast_recovery(conn.flight_size)
            conn.retransmit.timing = None
            conn.retransmit.retransmit_head()
            conn.retransmit.arm_rto()

    def _update_send_window(
        self, segment: TCPSegment, seq_abs: int, ack_abs: int, force: bool = False
    ) -> None:
        conn = self.conn
        if (
            force
            or seq_abs > conn._snd_wl1
            or (seq_abs == conn._snd_wl1 and ack_abs >= conn._snd_wl2)
        ):
            old_window = conn.snd_wnd
            conn.snd_wnd = segment.window
            conn._snd_wl1 = seq_abs
            conn._snd_wl2 = ack_abs
            if conn.snd_wnd > 0:
                if conn.retransmit.persist_timer is not None:
                    conn.retransmit.persist_timer.stop()
                conn.retransmit.persist_interval = PERSIST_TIMEOUT_MIN
                if old_window == 0:
                    conn.output.try_output()

    def challenge_ack(self) -> None:
        """Rate-limited ACK answering an unacceptable segment (RFC 5961)."""
        conn = self.conn
        now = conn.sim.now
        if now - self._challenge_window_start > CHALLENGE_WINDOW:
            self._challenge_window_start = now
            self._challenge_count = 0
        if self._challenge_count >= CHALLENGE_LIMIT:
            return
        self._challenge_count += 1
        conn.output.ack_now()

    # -- payload -------------------------------------------------------------
    def _process_payload(self, segment: TCPSegment, seq_abs: int) -> None:
        conn = self.conn
        offset = seq_abs - conn.irs - 1  # rcv_offset, inline
        before = conn.rcv_nxt
        advanced = conn.recv_buffer.insert(offset, segment.payload)
        conn.bytes_received += segment.payload_length
        if advanced > 0:
            conn.rcv_nxt += advanced
            conn.output.schedule_ack(advanced // conn.mss or 1)
            ext = conn.extension
            if ext is not None:
                ext.on_rcv_advance(conn)
            if conn.socket is not None:
                conn.socket._pump_readers()
                if conn.state is TCPState.CLOSED:
                    return  # aborted from the wake-up: the engines are let go
        else:
            # Out-of-order or duplicate: immediate ACK to feed the sender's
            # fast-retransmit machinery.
            conn.output.ack_now()
            return
        if conn.recv_buffer.out_of_order_bytes > 0 and conn.rcv_nxt > before:
            # Filled part of a hole but more reordering remains: ACK now.
            conn.output.ack_now()

    # -- FIN -----------------------------------------------------------------
    def process_fin(self, fin_seq: int) -> None:
        """The peer's FIN at absolute ``fin_seq``: from a segment, or out
        of band (``TCPConnection.inject_receive_fin``)."""
        conn = self.conn
        if fin_seq != conn.rcv_nxt:
            return  # FIN beyond a hole; wait for retransmission
        if conn.fin_received:
            conn.output.ack_now()
            return
        conn.fin_received = True
        conn.rcv_nxt += 1
        conn.output.ack_now()
        # CLOSE_WAIT before the readers wake: a close() made from the EOF
        # wake-up is RFC 793's passive close (LAST_ACK, then CLOSED).
        if conn.state is TCPState.ESTABLISHED:
            conn.state = TCPState.CLOSE_WAIT
        if conn.socket is not None:
            conn.socket._pump_readers()  # wake readers so they observe EOF
        if conn.state is TCPState.FIN_WAIT_1:
            if conn._fin_acked:
                conn._enter_time_wait()
            else:
                conn.state = TCPState.CLOSING
        elif conn.state is TCPState.FIN_WAIT_2:
            conn._enter_time_wait()
