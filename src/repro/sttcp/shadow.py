"""The backup's record of one shadowed connection (§4.1, §4.2, §5).

Everything that makes a backup's connection "special" lives in one
:class:`ShadowExtension`: it occupies the TCB's
:attr:`~repro.tcp.tcb.TCPConnection.extension` slot, whose four hooks the
core engines call, and it is the backup engine's per-connection state
(the value of ``STTCPBackup._connections`` and what
:class:`~repro.sttcp.indexes.BackupConnectionIndex` indexes):

* **Output suppression** — the shadow processes every tapped segment and
  advances all state exactly like the primary, but nothing it would send
  is built: attaching sets the TCB's
  :attr:`~repro.tcp.tcb.TCPConnection.output_inhibited`, under which the
  output engine keeps a sent segment's bookkeeping and stops before
  building it, and the core arms no transmission-causing timers.
* **ISN synchronisation** — primary and backup choose different ISNs, so
  the shadow re-anchors its send sequence space on the primary's ISN
  (§4.1 step 3): from the client's handshake ACK in ``on_ack``, or from
  the tapped primary SYN/ACK via :meth:`learn_primary_isn` when the tap
  lost the early client segments.
* **Pending-ACK deferral** — a client ACK may cover bytes the primary
  sent that the (slower) shadow application has not produced yet; it is
  stashed and applied in ``after_output`` as the data materialises
  (§4.2, determinism assumption).
* **Receive-stream advance** — ``on_rcv_advance`` hands the engine the
  record whose stream moved (X-byte BackupAcks and recovery bookkeeping,
  §4.2–§4.3).
* **Takeover** — :meth:`takeover` clears ``output_inhibited``, go-back-N
  retransmits anything in flight (or announces liveness with a pure
  ACK), and arms a one-shot flag so the failover timeline records when
  the client's first retransmission is accepted.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.sttcp.messages import ConnKey, conn_key
from repro.tcp.constants import TCPState
from repro.tcp.seqspace import unwrap, wrap

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tcp.segment import TCPSegment
    from repro.tcp.tcb import TCPConnection


class ShadowExtension:
    """Makes one connection an output-suppressed, ISN-syncing shadow and
    holds the backup engine's bookkeeping for it."""

    __slots__ = (
        "engine",
        "tcb",
        "key",
        "ack_threshold",
        "closed",
        "converged",
        "last_acked_offset",
        "last_ack_time",
        "pending_retx",
        "primary_rcv_nxt",
        "isn_rebased",
        "pending_ack",
        "_applying_pending_ack",
        "_first_ack_pending",
    )

    def __init__(self, engine: Any, tcb: "TCPConnection", now: float, ack_threshold: int) -> None:
        self.engine = engine  # the STTCPBackup that owns this record
        self.tcb = tcb
        self.key: ConnKey = conn_key(tcb.remote_ip, tcb.remote_port)
        self.ack_threshold = ack_threshold  # X (§4.3): bytes received that trigger a BackupAck
        self.closed = False  # reaped; invalidates lazy index entries
        self.converged = False  # rebased + synchronized at least once
        self.last_acked_offset = 0  # LastByteAcked (as a stream offset)
        self.last_ack_time = now
        self.pending_retx: Optional[tuple] = None  # (start_abs, stop_abs, at)
        self.primary_rcv_nxt: Optional[int] = None  # abs, from tapped ACKs
        #: True once the send sequence space sits on the primary's ISN.
        self.isn_rebased = False
        #: Client ACK running ahead of locally produced data (absolute).
        self.pending_ack: Optional[int] = None
        self._applying_pending_ack = False
        #: Set by takeover: the next inbound segment ends the client's outage.
        self._first_ack_pending = False
        # Occupy the slot; output suppression until takeover.
        tcb.extension = self
        tcb.output_inhibited = True

    # -- inbound absorption before ISN sync -----------------------------------
    def on_segment_in(self, conn: "TCPConnection", segment: "TCPSegment") -> bool:
        consumed = False
        if (
            not self.isn_rebased
            and conn.state is TCPState.SYN_RCVD
            and segment.is_ack
            and unwrap(segment.seq, conn.rcv_nxt) != conn.irs + 1
        ):
            # A late client segment reached an un-synchronised shadow (the
            # tap lost the early exchange).  Its *cumulative* ACK does not
            # reveal the primary's ISN — rebasing from it would skew the
            # whole sequence mapping — so absorb the payload only and keep
            # waiting for a safe ISN source (a seq==IRS+1 segment, or the
            # tapped primary SYN/ACK via the backup engine).
            if segment.payload_length:
                conn.inject_receive_data(
                    unwrap(segment.seq, conn.rcv_nxt), segment.payload
                )
            consumed = True
        if self._first_ack_pending:
            self._emit_first_ack(conn, segment)
        return consumed

    def _emit_first_ack(self, conn: "TCPConnection", segment: "TCPSegment") -> None:
        """The ``failover/first_ack`` checkpoint: the first client segment a
        just-taken-over server accepts (the paper's "first retransmission
        accepted" instant, the end of the client's RTO wait), once."""
        self._first_ack_pending = False
        sim = conn.layer.sim  # a TCB's, or its TIME_WAIT record's
        trace = sim.trace
        if "failover" in trace.categories:
            trace.emit(
                sim.now,
                "failover",
                "first_ack",
                host=conn.layer.host.name,
                remote=f"{conn.remote_ip}:{conn.remote_port}",
                amount=segment.payload_length,
            )

    # -- ISN synchronisation + pending-ACK clamp ------------------------------
    def on_ack(
        self, conn: "TCPConnection", segment: "TCPSegment", ack_abs: int
    ) -> int:
        if conn.state is TCPState.SYN_RCVD and not self.isn_rebased:
            # Shadow handshake (§4.1 step 3): the client's handshake ACK
            # acknowledges primary_ISS + 1; our own (suppressed) SYN/ACK
            # used a different ISN, so rewrite all send sequence state
            # before standard processing sees the ACK.
            old_iss = conn.iss
            conn.adopt_send_isn(ack_abs - 1)
            self.isn_rebased = True
            conn.trace_event("isn_rebase", old=wrap(old_iss), new=wrap(conn.iss))
            ack_abs = unwrap(segment.ack, conn.snd_una)
        if ack_abs > conn.snd_max:
            # The client acknowledged bytes the primary sent but our
            # (slower) shadow application has not produced yet.  Remember
            # and apply once the data materialises (§4.2, determinism
            # assumption).
            self.pending_ack = max(self.pending_ack or 0, ack_abs)
            ack_abs = conn.snd_max
        return ack_abs

    def learn_primary_isn(self, conn: "TCPConnection", isn_abs: int) -> None:
        """ISN sync from the *tapped primary SYN/ACK* (whose seq field is
        the ISN itself) — the source that works even when the tap lost
        every early client segment."""
        if self.isn_rebased or conn.state is not TCPState.SYN_RCVD:
            return
        old_iss = conn.iss
        conn.adopt_send_isn(isn_abs)
        self.isn_rebased = True
        conn.trace_event(
            "isn_rebase_from_synack", old=wrap(old_iss), new=wrap(conn.iss)
        )

    # -- pending-ACK application ----------------------------------------------
    def after_output(self, conn: "TCPConnection") -> None:
        """Apply a client ACK that ran ahead of the shadow application.

        Handling the ack wakes the (shadow) application, which writes and
        virtually sends more data, which may allow more of the pending
        ack to apply — iterated here with a re-entrancy guard, because
        the wake path leads straight back into ``try_output``.
        """
        if self._applying_pending_ack:
            return
        self._applying_pending_ack = True
        try:
            while self.pending_ack is not None:
                pending = self.pending_ack
                target = min(pending, conn.snd_max)
                if pending <= conn.snd_max:
                    self.pending_ack = None
                if target > conn.snd_una:
                    conn.input.apply_cumulative_ack(target)
                elif self.pending_ack is not None:
                    break  # no progress possible until more data is produced
        finally:
            self._applying_pending_ack = False

    # -- receive-stream advance -----------------------------------------------
    def on_rcv_advance(self, conn: "TCPConnection") -> None:
        self.engine._on_stream_advance(self)

    # -- failover -------------------------------------------------------------
    def takeover(self, conn: "TCPConnection") -> None:
        """Failover: make this shadow connection live (§5).

        Output suppression is lifted; if unacknowledged data is
        outstanding it is retransmitted immediately, otherwise a pure ACK
        announces the (indistinguishable) server's liveness.
        """
        if not conn.output_inhibited:
            return
        conn.output_inhibited = False
        # The next segment the client sends us marks the end of its outage.
        self._first_ack_pending = True
        conn.trace_event("takeover", flight=conn.flight_size)
        if conn.state is TCPState.CLOSED:
            return
        if conn.flight_size > 0:
            # The primary may have died mid-burst: bytes this shadow
            # "sent" virtually but the primary never put on the wire are
            # holes the client cannot dup-ack us toward.  Retransmit the
            # head now and go-back-N through the rest as ACKs return.
            conn.retransmit.force_go_back_n()
        elif conn.is_synchronized:
            conn.ack_now()
        conn.try_output()
