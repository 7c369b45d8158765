"""ST-TCP shadowing as a TCP extension (§4.1, §4.2, §5).

Everything that used to make a backup's connection "special" inside the
core TCP stack now lives here, behind the
:class:`repro.tcp.extension.TCPExtension` hook API:

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
* **Takeover** — :meth:`takeover` clears ``output_inhibited``, go-back-N
  retransmits anything in flight (or announces liveness with a pure
  ACK), and attaches an :class:`repro.obs.tcp_ext.FirstAckProbe` so the
  failover timeline records when the client's first retransmission is
  accepted.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.obs.tcp_ext import FirstAckProbe
from repro.tcp.constants import TCPState
from repro.tcp.extension import TCPExtension
from repro.tcp.seqspace import unwrap, wrap

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tcp.segment import TCPSegment
    from repro.tcp.tcb import TCPConnection


class ShadowExtension(TCPExtension):
    """Makes one connection an output-suppressed, ISN-syncing shadow."""

    name = "sttcp.shadow"

    __slots__ = ("isn_rebased", "pending_ack", "_applying_pending_ack")

    def __init__(self) -> None:
        #: True once the send sequence space sits on the primary's ISN.
        self.isn_rebased = False
        #: Client ACK running ahead of locally produced data (absolute).
        self.pending_ack: Optional[int] = None
        self._applying_pending_ack = False

    @classmethod
    def of(cls, conn: "TCPConnection") -> Optional["ShadowExtension"]:
        """The connection's shadow extension, or None if it has none."""
        for ext in conn.extensions:
            if isinstance(ext, cls):
                return ext
        return None

    # -- lifecycle ------------------------------------------------------------
    def on_attach(self, conn: "TCPConnection") -> None:
        # Output suppression until takeover: the TCB builds nothing.
        conn.output_inhibited = True

    # -- inbound absorption before ISN sync -----------------------------------
    def on_segment_in(self, conn: "TCPConnection", segment: "TCPSegment") -> bool:
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
            return True
        return False

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
        # The next segment the client sends us marks the end of its
        # outage — record it through an obs-side probe, not core state.
        conn.add_extension(FirstAckProbe())
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
