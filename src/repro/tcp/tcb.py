"""The TCP connection: a slim facade over three engines and two buffers.

This is a full, wire-faithful TCP endpoint: three-way handshake, sliding
window with flow and Reno congestion control, RFC 6298 retransmission
timing with Linux bounds, delayed ACKs, zero-window probing, orderly and
abortive teardown, and TIME_WAIT (kept by a compact
:class:`~repro.tcp.timewait.TimeWait` record once entered).

The behaviour lives in three engines with explicit interfaces:

* :class:`repro.tcp.input.InputEngine` — sequence validation, the state
  machine, ACK processing;
* :class:`repro.tcp.output.OutputEngine` — segmentization, window /
  Nagle / delayed-ACK decisions, emission;
* :class:`repro.tcp.retransmit.RetransmitEngine` — RTO and persist
  timers, head retransmit, backoff.

:class:`TCPConnection` coordinates them, owns the send and receive
buffers and the sequence-number ↔ stream-offset arithmetic, holds the
shared connection state (addresses, TCP state, sequence variables, FIN
bookkeeping, the socket it tells, counters), and one ``extension`` slot:
``None`` on a plain connection, or an object whose four hooks the engines
call behind one ``is not None`` check — an inbound segment, a cumulative
ACK, the end of an output pass, an advance of the receive stream.  Work done
on a connection from outside its own segment flow — re-anchoring,
splicing, fast-forwarding — goes through the *repair* section below.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.errors import ConnectionClosed, ConnectionReset
from repro.net.addresses import IPAddress
from repro.tcp.config import TCPConfig
from repro.tcp.congestion import RenoCongestionControl
from repro.tcp.constants import (
    FLAG_ACK,
    FLAG_RST,
    SYNCHRONIZED_STATES,
    TCPState,
)
from repro.tcp.input import InputEngine
from repro.tcp.output import OutputEngine
from repro.tcp.recv_buffer import ReceiveBuffer
from repro.tcp.retransmit import RetransmitEngine
from repro.tcp.segment import TCPSegment
from repro.tcp.send_buffer import SendBuffer
from repro.tcp.timewait import TimeWait
from repro.util.bytespan import ByteSpan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tcp.socket import TCPSocket


class TCPConnection:
    """One endpoint of one TCP connection (facade over the engines)."""

    # One group per block of ``__init__``, in its order.
    __slots__ = (
        "layer", "sim", "local_ip", "local_port", "remote_ip", "remote_port",
        "config", "state",
        "iss", "irs", "snd_una", "snd_nxt", "snd_max", "snd_wnd",
        "_snd_wl1", "_snd_wl2", "rcv_nxt",
        "mss", "cc",
        "output_inhibited", "extension",
        "_fin_pending", "_fin_sent", "_fin_seq", "_fin_acked", "fin_received",
        "socket",
        "segments_sent", "segments_received", "bytes_sent", "bytes_received",
        "retransmissions", "dupacks_received", "error",
        "send_buffer", "recv_buffer",
        "retransmit", "output", "input",
    )

    def __init__(
        self,
        layer: Any,
        local_ip: IPAddress,
        local_port: int,
        remote_ip: IPAddress,
        remote_port: int,
        config: TCPConfig,
    ) -> None:
        config.validate()
        self.layer = layer
        self.sim = layer.sim
        self.local_ip = local_ip
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.config = config
        self.state = TCPState.CLOSED

        # Sequence state (absolute/unwrapped; see repro.tcp.seqspace).
        self.iss = 0
        self.irs = 0
        self.snd_una = 0
        self.snd_nxt = 0
        self.snd_max = 0
        self.snd_wnd = 0
        self._snd_wl1 = -1
        self._snd_wl2 = -1
        self.rcv_nxt = 0

        # Algorithms shared across engines.
        self.mss = config.mss  # effective MSS after option exchange
        self.cc = RenoCongestionControl(config.mss)

        #: While True, the output engine keeps the bookkeeping of every
        #: segment it would send but builds none, and no timer that causes
        #: a transmission is armed (a replica mirroring another host's
        #: connection).
        self.output_inhibited = False
        #: A protocol variant's per-connection hooks, or None.  The engines
        #: call ``on_segment_in(conn, segment)`` before dispatch (True
        #: consumes the segment), ``on_ack(conn, segment, ack_abs)`` at
        #: the top of ACK processing (returns the ACK to use),
        #: ``after_output(conn)`` after each output pass and
        #: ``on_rcv_advance(conn)`` whenever ``rcv_nxt`` moves.
        self.extension: Any = None

        # FIN bookkeeping (read by input, output and retransmit engines).
        self._fin_pending = False  # app asked to close; FIN not yet sent
        self._fin_sent = False
        self._fin_seq: Optional[int] = None
        self._fin_acked = False
        #: The peer's FIN has arrived: a field, because the socket tests it
        #: on every reader wake-up (DESIGN §13 rule 9).
        self.fin_received = False

        #: The application's handle, which the engines tell of every change
        #: it waits on (None until a :class:`TCPSocket` wraps the connection).
        self.socket: Optional["TCPSocket"] = None

        # Counters.
        self.segments_sent = 0
        self.segments_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.retransmissions = 0
        self.dupacks_received = 0
        self.error: Optional[BaseException] = None

        # Byte streams (stream offset 0 is sequence ISS+1 / IRS+1).
        self.send_buffer = SendBuffer(config.snd_buffer)
        self.recv_buffer = ReceiveBuffer(config.rcv_buffer)

        # Engines.
        self.retransmit = RetransmitEngine(self, config)
        self.output = OutputEngine(self, config)
        self.input = InputEngine(self)

    # ------------------------------------------------------------------ utils
    @property
    def key(self) -> tuple:
        return (self.local_ip.value, self.local_port, self.remote_ip.value, self.remote_port)

    @property
    def flight_size(self) -> int:
        """Unacknowledged sequence space outstanding."""
        return self.snd_max - self.snd_una

    @property
    def is_synchronized(self) -> bool:
        return self.state in SYNCHRONIZED_STATES

    @property
    def readable_bytes(self) -> int:
        return self.recv_buffer.available

    # -------------------------------------------------------------- tracing
    def trace_event(self, event: str, **fields: Any) -> None:
        if "tcp" in self.sim.trace.categories:
            self.sim.trace.emit(
                self.sim.now,
                "tcp",
                event,
                host=self.layer.host.name,
                local=f"{self.local_ip}:{self.local_port}",
                remote=f"{self.remote_ip}:{self.remote_port}",
                state=self.state.value,
                **fields,
            )

    # ------------------------------------------------------------- opening
    def open_active(self) -> None:
        """Client-side connect: send SYN, enter SYN_SENT."""
        if self.state is not TCPState.CLOSED:
            raise ConnectionClosed(f"open_active in state {self.state}")
        self._choose_isn()
        self.state = TCPState.SYN_SENT
        self.output.send_syn(with_ack=False)
        self.retransmit.arm_rto()
        self.trace_event("active_open")

    def open_passive(self, syn: TCPSegment) -> None:
        """Server-side: a listener accepted this SYN; answer SYN/ACK."""
        if self.state is not TCPState.CLOSED:
            raise ConnectionClosed(f"open_passive in state {self.state}")
        self._choose_isn()
        self.irs = syn.seq  # adopt the wire value as the absolute origin
        self.rcv_nxt = self.irs + 1
        if syn.mss_option is not None:
            self.mss = min(self.mss, syn.mss_option)
            self.cc.mss = self.mss
        self.state = TCPState.SYN_RCVD
        self.output.send_syn(with_ack=True)
        self.retransmit.arm_rto()
        self.trace_event("passive_open")

    def _choose_isn(self) -> None:
        if self.config.isn is not None:
            isn = self.config.isn
        else:
            isn = self.layer.generate_isn()
        self.iss = isn
        self.snd_una = isn
        self.snd_nxt = isn + 1  # SYN consumes one sequence number
        self.snd_max = isn + 1

    # --------------------------------------------------------- application API
    def app_write(self, data: ByteSpan, start: int = 0) -> int:
        """Accept bytes of ``data[start:]`` from the application; returns
        how many fit."""
        if self.state in (TCPState.CLOSED, TCPState.LISTEN):
            raise ConnectionClosed("write on unconnected socket")
        if self._fin_pending or self._fin_sent:
            raise ConnectionClosed("write after close")
        accepted = self.send_buffer.append(data, start)
        if accepted and self.state in SYNCHRONIZED_STATES:
            self.output.try_output()
        return accepted

    def app_read(self, max_bytes: int) -> ByteSpan:
        """Pop up to ``max_bytes`` of received in-order data.

        A window update is only ever due when the last advertised window
        was below two segments (``maybe_send_window_update``'s own test),
        so only then is the method called.
        """
        span = self.recv_buffer.read(max_bytes)
        if (
            span.length
            and self.output.last_advertised_window < 2 * self.mss
            and self.state in SYNCHRONIZED_STATES
        ):
            self.output.maybe_send_window_update()
        return span

    def app_close(self) -> None:
        """Orderly close: flush pending data then send FIN.  Closing a
        closed endpoint does nothing: its ``error`` stays what ended it."""
        if self.state is TCPState.CLOSED:
            return
        if self.state is TCPState.LISTEN:
            self._enter_closed(None)
            return
        if self._fin_pending or self._fin_sent:
            return
        self._fin_pending = True
        if self.state is TCPState.SYN_SENT:
            # Nothing on the wire that matters; just drop the connection.
            self._enter_closed(None)
            return
        if self.state is TCPState.ESTABLISHED or self.state is TCPState.SYN_RCVD:
            self.state = TCPState.FIN_WAIT_1
        elif self.state is TCPState.CLOSE_WAIT:
            self.state = TCPState.LAST_ACK
        self.output.try_output()

    def app_abort(self) -> None:
        """Abortive close: emit RST and discard state."""
        if self.is_synchronized or self.state is TCPState.SYN_RCVD:
            self.output.emit(FLAG_RST | FLAG_ACK, self.snd_nxt)
        self._enter_closed(ConnectionReset("connection aborted locally"))

    # ---------------------------------------------------------- engine facade
    # For callers outside the engines; the engines and the application
    # entry points above call ``self.output`` directly (DESIGN §13 rule 7).
    def try_output(self) -> None:
        """Send whatever the windows currently allow."""
        self.output.try_output()

    def ack_now(self) -> None:
        """Send an immediate pure ACK."""
        self.output.ack_now()

    def on_segment(self, segment: TCPSegment) -> None:
        """Process one inbound (or tapped/injected) segment."""
        self.input.on_segment(segment)

    # ------------------------------------------------------------ state exits
    def _enter_time_wait(self) -> None:
        """Hand the wait to a :class:`TimeWait` record, which takes this
        TCB's place in the layer's table, its socket and its extension.

        The engines point back at this TCB and each timer at its engine:
        those ties are cut (a cancelled timer lets go of its callback), so
        that reference counting frees the TCB and all it owns now, not at
        the collector's next full pass.  The caller is the input engine's
        last step on the segment."""
        self.state = TCPState.TIME_WAIT
        self.cancel_timers()
        self.layer.time_wait(self, TimeWait(self))
        del self.retransmit.conn, self.output.conn, self.input.conn

    def cancel_timers(self) -> None:
        """Retire every queued timer entry and let go of the callbacks: on
        close and on entering TIME_WAIT (a dead entry would pin the TCB
        until due) and on a crash (``TCPLayer.halt``)."""
        retransmit = self.retransmit
        retransmit.rto_timer.cancel()
        if retransmit.persist_timer is not None:
            retransmit.persist_timer.cancel()
        self.output.delack_timer.cancel()

    def _enter_closed(self, error: Optional[BaseException]) -> None:
        """Reach CLOSED: leave the table, tell the socket, and cut the ties
        that make the TCB a cycle — its engines' ``conn``, the socket's
        back-pointer, the extension and the retention policy's buffer —
        so that reference counting frees it once the application lets go
        of the socket (as ``_enter_time_wait`` does for the wait).  The
        socket keeps the TCB: ``state``, ``close()`` and ``recv()`` (the
        unread bytes, then EOF) go on working, and reach no engine."""
        previous = self.state
        self.state = TCPState.CLOSED
        self.error = error
        self.cancel_timers()
        self.layer.connection_closed(self)
        self.trace_event("closed", previous=previous.value, error=repr(error))
        socket = self.socket
        if socket is not None:
            if error is not None:
                socket._on_error(error)
            socket._on_closed()
        if previous is not TCPState.CLOSED:  # a second close finds them cut
            self.socket = self.extension = None
            retention = self.recv_buffer.retention
            if retention is not None:
                retention.buffer = None
            del self.retransmit.conn, self.output.conn, self.input.conn

    # ------------------------------------------------------------------ repair
    # Connection repair, in the manner of Linux TCP_REPAIR: generic
    # operations that read or rewrite a connection's anchors and streams
    # from outside its own segment flow.  The stack offers the operations;
    # the engine that calls them owns the policy.  Each is one
    # call deep.  "Open from supplied state" is
    # :meth:`repro.tcp.layer.TCPLayer.synthesize_passive_open`.

    def snd_offset(self, seq_abs: int) -> int:
        """Send-stream offset of an absolute sequence number (ISS+1 is 0)."""
        return seq_abs - self.iss - 1

    def rcv_offset(self, seq_abs: int) -> int:
        """Receive-stream offset of an absolute sequence number (IRS+1 is 0)."""
        return seq_abs - self.irs - 1

    def adopt_send_isn(self, isn_abs: int) -> None:
        """Re-anchor the send sequence space on a different ISN.

        For when the ISN this endpoint chose locally must be replaced by
        the one the peer actually handshook with: every send-side anchor
        moves so that ``iss == isn_abs`` with the SYN consumed and nothing
        in flight.  Offsets are relative to ``iss``, so nothing else moves.
        """
        self.iss = isn_abs
        self.snd_una = isn_abs
        self.snd_nxt = isn_abs + 1
        self.snd_max = isn_abs + 1

    def inject_receive_data(self, seq_abs: int, payload: ByteSpan) -> int:
        """Splice bytes obtained out of band into the receive stream.

        Touches *only* the receive stream — not the ACK machinery, because
        a synthetic ACK arriving while the connection is still in
        SYN_RCVD would anchor its send sequence space against the wrong
        ISN.  Returns how far ``rcv_nxt`` advanced.
        """
        if not (self.is_synchronized or self.state is TCPState.SYN_RCVD):
            return 0
        advanced = self.recv_buffer.insert(self.rcv_offset(seq_abs), payload)
        self.bytes_received += payload.length
        if advanced > 0:
            self.rcv_nxt += advanced
            if self.extension is not None:
                self.extension.on_rcv_advance(self)
            if self.socket is not None:
                self.socket._pump_readers()
        return advanced

    def inject_receive_fin(self, fin_seq_abs: int) -> bool:
        """Take the peer's FIN, obtained out of band, as a segment would
        deliver it: only once every byte before ``fin_seq_abs`` is in.
        Returns whether it was taken."""
        if self.fin_received or fin_seq_abs != self.rcv_nxt or not self.is_synchronized:
            return False
        self.input.process_fin(fin_seq_abs)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<TCPConnection {self.local_ip}:{self.local_port} <-> "
            f"{self.remote_ip}:{self.remote_port} {self.state.value}>"
        )
