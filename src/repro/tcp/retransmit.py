"""Retransmission engine: loss timers, head retransmit, backoff.

Owns everything that re-sends already-committed sequence space — the
RFC 6298 retransmission timer with Linux bounds, the zero-window persist
timer, Karn-protected RTT timing, and the go-back-N
recovery point used after a timeout (or a failover, via
:meth:`force_go_back_n`).

The engine never *builds* segments itself beyond choosing what range to
resend; emission goes through the connection's output engine so window
advertisement, delayed-ACK housekeeping, output inhibition and transmit
filters apply uniformly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.errors import ConnectionTimeout
from repro.tcp.config import TCPConfig
from repro.tcp.constants import (
    FLAG_ACK,
    FLAG_FIN,
    MAX_SYN_RETRANSMITS,
    PERSIST_TIMEOUT_MAX,
    PERSIST_TIMEOUT_MIN,
    RTO_MIN,
    TCPState,
)
from repro.tcp.rtt import RTTEstimator
from repro.tcp.timers import RestartableTimer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tcp.tcb import TCPConnection


class RetransmitEngine:
    """Loss recovery and the timers that can cause (re)transmissions."""

    __slots__ = (
        "conn",
        "rtt",
        "rto_timer",
        "persist_timer",
        "retransmit_count",
        "recovery_point",
        "timing",
        "persist_interval",
    )

    def __init__(self, conn: "TCPConnection", config: TCPConfig) -> None:
        self.conn = conn
        self.rtt = RTTEstimator(RTO_MIN, config.rto_max)
        sim = conn.sim
        self.rto_timer = RestartableTimer(sim, self._on_rto, "rto")
        # Built when first armed (DESIGN §14): few connections ever use them.
        self.persist_timer: Optional[RestartableTimer] = None
        #: Consecutive retransmissions of the current head (give-up limit).
        self.retransmit_count = 0
        #: Go-back-N target after an RTO (None outside recovery).
        self.recovery_point: Optional[int] = None
        #: (end_seq, sent_at) of the segment currently being RTT-timed;
        #: cleared on retransmission (Karn's algorithm).
        self.timing: Optional[Tuple[int, float]] = None
        self.persist_interval: float = PERSIST_TIMEOUT_MIN

    # -- timer arming --------------------------------------------------------
    def arm_rto(self) -> None:
        if self.conn.output_inhibited:
            return
        self.rto_timer.start(self.rtt.rto)

    def arm_rto_if_idle(self) -> None:
        if self.conn.output_inhibited:
            return
        self.rto_timer.start_if_idle(self.rtt.rto)

    def arm_persist(self) -> None:
        if self.conn.output_inhibited:
            return
        if self.persist_timer is None:
            self.persist_timer = RestartableTimer(self.conn.sim, self._on_persist, "persist")
        elif self.persist_timer.running:
            return
        self.persist_timer.start(self.persist_interval)

    # -- RTO -----------------------------------------------------------------
    def _on_rto(self) -> None:
        conn = self.conn
        if conn.state is TCPState.CLOSED:
            return
        self.retransmit_count += 1
        limit = (
            MAX_SYN_RETRANSMITS
            if conn.state in (TCPState.SYN_SENT, TCPState.SYN_RCVD)
            else conn.config.max_retransmits
        )
        if self.retransmit_count > limit:
            conn.trace_event("give_up", retransmits=self.retransmit_count)
            error: BaseException
            if conn.state is TCPState.SYN_SENT:
                error = ConnectionTimeout("connect timed out")
            else:
                error = ConnectionTimeout("too many retransmissions")
            conn._enter_closed(error)
            return
        self.rtt.on_timeout()
        self.timing = None  # Karn: never sample a retransmitted range
        if conn.is_synchronized:
            conn.cc.on_retransmission_timeout(conn.flight_size)
            conn.input.fast_recovery_point = None
            conn.input.dupacks = 0
            if conn.snd_una < conn.snd_max:
                self.recovery_point = conn.snd_max
        self.retransmit_head()
        self.arm_rto()

    def retransmit_head(self) -> None:
        """Retransmit the oldest unacknowledged segment."""
        conn = self.conn
        conn.retransmissions += 1
        if conn.state is TCPState.SYN_SENT:
            conn.output.send_syn(with_ack=False)
            return
        if conn.state is TCPState.SYN_RCVD:
            conn.output.send_syn(with_ack=True)
            return
        if conn._fin_sent and conn._fin_seq is not None and conn.snd_una == conn._fin_seq:
            conn.output.emit(FLAG_ACK | FLAG_FIN, conn._fin_seq)
            return
        if conn.snd_una >= conn.snd_max:
            return
        start = conn.snd_offset(conn.snd_una)
        end_limit = conn._fin_seq if conn._fin_seq is not None else conn.snd_max
        chunk = min(conn.mss, conn.snd_offset(end_limit) - start)
        if chunk <= 0:
            return
        flags = FLAG_ACK
        if (
            conn._fin_sent
            and conn._fin_seq is not None
            and conn.snd_una + chunk == conn._fin_seq
        ):
            flags |= FLAG_FIN
        conn.output.emit(flags, conn.snd_una, chunk)

    def force_go_back_n(self) -> None:
        """Failover recovery: retransmit the head immediately and walk the
        rest of the outstanding window as returning ACKs permit."""
        conn = self.conn
        self.recovery_point = conn.snd_max
        self.retransmit_head()
        self.arm_rto()

    # -- persist (zero-window probing) ---------------------------------------
    def _on_persist(self) -> None:
        conn = self.conn
        if not conn.is_synchronized:
            return
        if conn.snd_wnd > 0:
            self.persist_interval = PERSIST_TIMEOUT_MIN
            conn.output.try_output()
            return
        # Send a one-byte window probe if data is waiting.  The probe is
        # a real data byte and consumes sequence space: if the receiver's
        # window opened meanwhile it will ACK the byte, and that ACK must
        # be coherent with our send state.
        next_offset = conn.snd_offset(conn.snd_nxt)
        if conn.send_buffer.tail_offset > next_offset and conn.snd_nxt == conn.snd_max:
            conn.output.emit(FLAG_ACK, conn.snd_nxt, 1)
            conn.snd_nxt += 1
            conn.snd_max = conn.snd_nxt
        self.persist_interval = min(self.persist_interval * 2, PERSIST_TIMEOUT_MAX)
        self.arm_persist()
